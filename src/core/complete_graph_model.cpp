#include "core/complete_graph_model.hpp"

#include <cmath>

#include "core/affine.hpp"
#include "support/check.hpp"

namespace geogossip::core {

std::string_view alpha_mode_name(AlphaMode mode) noexcept {
  switch (mode) {
    case AlphaMode::kPaperFixed:
      return "paper-fixed";
    case AlphaMode::kConvexHalf:
      return "convex-1/2";
    case AlphaMode::kEndpointThird:
      return "endpoint-1/3";
  }
  return "?";
}

CompleteGraphModel::CompleteGraphModel(const CompleteGraphConfig& config,
                                       std::vector<double> x0, Rng& rng)
    : config_(config), x_(std::move(x0)), rng_(&rng) {
  GG_CHECK_ARG(config.n >= 2, "CompleteGraphModel: n >= 2");
  GG_CHECK_ARG(x_.size() == config.n, "x0 size must equal n");
  GG_CHECK_ARG(config.noise_bound >= 0.0, "noise bound must be >= 0");

  alpha_.resize(config.n);
  for (std::size_t i = 0; i < config.n; ++i) {
    switch (config.alpha_mode) {
      case AlphaMode::kPaperFixed:
        alpha_[i] = draw_alpha(*rng_);
        break;
      case AlphaMode::kConvexHalf:
        alpha_[i] = 0.5;
        break;
      case AlphaMode::kEndpointThird:
        alpha_[i] = kAlphaLow + 1e-9;
        break;
    }
  }
  for (const double v : x_) initial_norm_sq_ += v * v;
}

void CompleteGraphModel::step() {
  const std::size_t i = rng_->below(config_.n);
  const std::size_t j = rng_->below_excluding(config_.n, i);

  affine_pair_update(x_[i], x_[j], alpha_[i], alpha_[j]);

  if (config_.noise_bound > 0.0) {
    // Lemma 2's perturbation: +nu at i, -nu at j (mass-preserving).
    const double nu =
        rng_->uniform(-config_.noise_bound, config_.noise_bound);
    x_[i] += nu;
    x_[j] -= nu;
  }
  ++steps_;
}

void CompleteGraphModel::run(std::uint64_t steps) {
  for (std::uint64_t s = 0; s < steps; ++s) step();
}

double CompleteGraphModel::norm_squared() const noexcept {
  double accum = 0.0;
  for (const double v : x_) accum += v * v;
  return accum;
}

double CompleteGraphModel::relative_norm() const {
  GG_CHECK(initial_norm_sq_ > 0.0, "relative_norm: ||x(0)|| is zero");
  return std::sqrt(norm_squared() / initial_norm_sq_);
}

double lemma1_bound(std::size_t n, std::uint64_t t) {
  GG_CHECK_ARG(n >= 2, "lemma1_bound: n >= 2");
  return std::pow(1.0 - 1.0 / (2.0 * static_cast<double>(n)),
                  static_cast<double>(t));
}

double corollary_tail_bound(std::size_t n, std::uint64_t t, double epsilon) {
  GG_CHECK_ARG(epsilon > 0.0, "corollary_tail_bound: epsilon > 0");
  return std::min(1.0, lemma1_bound(n, t) / (epsilon * epsilon));
}

double lemma2_envelope(std::size_t n, std::uint64_t t, double a,
                       double y0_norm, double noise_bound) {
  GG_CHECK_ARG(n >= 2, "lemma2_envelope: n >= 2");
  GG_CHECK_ARG(a > 0.0, "lemma2_envelope: a > 0");
  const double nn = static_cast<double>(n);
  const double contraction =
      std::pow(1.0 - 1.0 / (2.0 * nn), static_cast<double>(t) / 2.0);
  return std::pow(nn, a / 2.0) *
         (contraction * y0_norm +
          8.0 * std::sqrt(2.0) * std::pow(nn, 1.5) * noise_bound);
}

double lemma2_failure_probability(std::size_t n, double a) {
  GG_CHECK_ARG(n >= 2, "lemma2_failure_probability: n >= 2");
  GG_CHECK_ARG(a > 0.0, "lemma2_failure_probability: a > 0");
  return std::min(1.0, 5.0 / std::pow(static_cast<double>(n), a));
}

}  // namespace geogossip::core

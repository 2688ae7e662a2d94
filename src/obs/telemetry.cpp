#include "obs/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>

namespace geogossip::obs {

namespace {

constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 16;

/// Per-thread recording state.  Single writer (the owning thread).  The
/// events are read by snapshot()/reset() only while writers are
/// quiescent, per the header contract; the counter cells are relaxed
/// atomics, so counter_totals() may read them while their owner records.
/// The event buffer is allocated on the first recorded event, so threads
/// that never record while telemetry is on cost nothing, and trimmed to
/// the recorded events when the thread exits.
struct ThreadState {
  std::vector<Event> events;  ///< size() == capacity while the thread lives
  std::size_t count = 0;      ///< events stored (<= events.size())
  std::uint64_t dropped = 0;
  /// Indexed by CounterId.  Only the owner replaces the array, and only
  /// under the registry mutex, which every cross-thread reader holds.
  std::unique_ptr<std::atomic<std::uint64_t>[]> counters;
  std::size_t counter_slots = 0;
  std::uint32_t tid = 0;
  bool exited = false;  ///< the owning thread is gone: buffer trimmed
};

struct Registry {
  std::mutex mu;
  /// Shared ownership with each thread's TLS slot: buffers of exited
  /// threads stay readable until reset() — an exported trace must include
  /// events from pool workers that were joined before the export.
  std::vector<std::shared_ptr<ThreadState>> threads;
  std::uint32_t next_tid = 1;  // 0 is kSyntheticTid
  std::size_t capacity = kDefaultRingCapacity;
  std::vector<std::string> counter_names;  // CounterId -> name
  std::map<std::string, CounterId, std::less<>> counter_ids;
  std::set<std::string, std::less<>> interned;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during exit
  return *r;
}

/// A thread's TLS handle on its state.  On thread exit it trims the
/// event buffer to the events actually recorded: a pool thread's 4 MiB
/// buffer otherwise stays resident until reset(), for every pool a
/// process ever ran with telemetry on.
struct ThreadSlot {
  std::shared_ptr<ThreadState> state = std::make_shared<ThreadState>();

  ThreadSlot() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    state->tid = r.next_tid++;
    r.threads.push_back(state);
  }
  ~ThreadSlot() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    state->events.resize(state->count);
    state->events.shrink_to_fit();
    state->exited = true;
  }
};

ThreadState& thread_state() {
  thread_local ThreadSlot slot;
  return *slot.state;
}

}  // namespace

#if !defined(GEOGOSSIP_OBS_DISABLE)
void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}
#endif

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace detail {

void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
            const char* key_a, std::int64_t arg_a, const char* key_b,
            std::int64_t arg_b, std::uint32_t tid_override,
            bool use_override) {
  ThreadState& state = thread_state();
  if (state.events.empty()) {
    // First event on this thread: allocate the buffer once, off the
    // steady-state path.  A capacity of zero (tests probing the drop
    // accounting) leaves it empty and every event counts as dropped.
    std::size_t capacity;
    {
      Registry& r = registry();
      std::lock_guard<std::mutex> lock(r.mu);
      capacity = r.capacity;
    }
    state.events.resize(capacity);
  }
  if (state.count >= state.events.size()) {
    ++state.dropped;  // full: drop, never block or reallocate
    return;
  }
  Event& event = state.events[state.count++];
  event.name = name;
  event.key_a = key_a;
  event.key_b = key_b;
  event.arg_a = arg_a;
  event.arg_b = arg_b;
  event.start_ns = start_ns;
  event.end_ns = end_ns;
  event.tid = use_override ? tid_override : state.tid;
}

void counter_add_slow(std::uint32_t id, std::uint64_t value) {
  ThreadState& state = thread_state();
  if (id >= state.counter_slots) {
    // Sized to the full registered set, so later counters registered
    // before the hot phase never trigger another growth here.
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    const std::size_t slots =
        std::max<std::size_t>(r.counter_names.size(), id + 1);
    auto grown = std::make_unique<std::atomic<std::uint64_t>[]>(slots);
    for (std::size_t i = 0; i < slots; ++i) {
      grown[i].store(i < state.counter_slots
                         ? state.counters[i].load(std::memory_order_relaxed)
                         : 0,
                     std::memory_order_relaxed);
    }
    state.counters = std::move(grown);
    state.counter_slots = slots;
  }
  // Single writer: a relaxed load + store is an exact add, and compiles
  // to the plain increment a non-atomic cell would.
  std::atomic<std::uint64_t>& cell = state.counters[id];
  cell.store(cell.load(std::memory_order_relaxed) + value,
             std::memory_order_relaxed);
}

}  // namespace detail

CounterId counter(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.counter_ids.find(name);
  if (it != r.counter_ids.end()) return it->second;
  const auto id = static_cast<CounterId>(r.counter_names.size());
  r.counter_names.emplace_back(name);
  r.counter_ids.emplace(std::string(name), id);
  return id;
}

namespace {

/// Every registered counter's total over every thread.  Caller holds
/// r.mu, which keeps each thread's counter array in place.
std::map<std::string, std::uint64_t> counter_totals_locked(Registry& r) {
  std::vector<std::uint64_t> totals(r.counter_names.size(), 0);
  for (const auto& state : r.threads) {
    const std::size_t slots = std::min(state->counter_slots, totals.size());
    for (std::size_t i = 0; i < slots; ++i) {
      totals[i] += state->counters[i].load(std::memory_order_relaxed);
    }
  }
  std::map<std::string, std::uint64_t> named;
  for (std::size_t i = 0; i < totals.size(); ++i) {
    named.emplace(r.counter_names[i], totals[i]);
  }
  return named;
}

}  // namespace

std::map<std::string, std::uint64_t> counter_totals() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return counter_totals_locked(r);
}

std::size_t event_buffer_bytes() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::size_t bytes = 0;
  for (const auto& state : r.threads) {
    bytes += state->events.capacity() * sizeof(Event);
  }
  return bytes;
}

Snapshot snapshot() {
  Snapshot snap;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& state : r.threads) {
    snap.events.insert(snap.events.end(), state->events.begin(),
                       state->events.begin() +
                           static_cast<std::ptrdiff_t>(state->count));
    snap.dropped_events += state->dropped;
  }
  std::sort(snap.events.begin(), snap.events.end(),
            [](const Event& a, const Event& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.tid < b.tid;
            });
  snap.counters = counter_totals_locked(r);
  return snap;
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  // An exited thread can never record again, so once zeroed its state is
  // dead weight: drop it.
  r.threads.erase(std::remove_if(r.threads.begin(), r.threads.end(),
                                 [](const auto& state) {
                                   return state->exited;
                                 }),
                  r.threads.end());
  for (const auto& state : r.threads) {
    state->count = 0;
    state->dropped = 0;
    for (std::size_t i = 0; i < state->counter_slots; ++i) {
      state->counters[i].store(0, std::memory_order_relaxed);
    }
  }
}

void set_ring_capacity(std::size_t events_per_thread) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.capacity = events_per_thread;
  for (const auto& state : r.threads) {
    if (state->exited) {
      // A trimmed buffer never grows back (nothing can be recorded into
      // it); it only keeps within the capacity.
      state->count = std::min(state->count, events_per_thread);
      state->events.resize(state->count);
      continue;
    }
    if (!state->events.empty() || events_per_thread == 0) {
      state->events.assign(events_per_thread, Event{});
      state->count = std::min(state->count, events_per_thread);
    }
  }
}

std::size_t ring_capacity() noexcept {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.capacity;
}

const char* intern(std::string_view text) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.interned.emplace(text).first->c_str();
}

}  // namespace geogossip::obs

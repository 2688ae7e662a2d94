// Chrome/Perfetto trace-event export of a telemetry Snapshot.
//
// Emits the JSON Object Format understood by chrome://tracing and
// ui.perfetto.dev: one complete ("ph":"X") event per recorded span with
// microsecond ts/dur, grouped under one pid with the recorder's thread
// lane as tid — spans recorded on the same lane nest by time, so
// replicate spans naturally contain their graph-build / routing-mirror /
// protocol-run phases.  Synthetic envelope spans (obs::kSyntheticTid) get
// their own named lane.  Counter totals and the dropped-event count ride
// along under "otherData".  obs/trace_check.hpp reads the file back (the
// trace_summary tool).
#ifndef GEOGOSSIP_OBS_TRACE_EXPORT_HPP
#define GEOGOSSIP_OBS_TRACE_EXPORT_HPP

#include <ostream>
#include <string>

#include "obs/telemetry.hpp"

namespace geogossip::obs {

/// Writes `snap` as Chrome trace-event JSON.  `process_name` labels the
/// trace's single process row in the viewer.
void write_chrome_trace(std::ostream& out, const Snapshot& snap,
                        const std::string& process_name);

/// Convenience: opens `path` (throws ArgumentError when it cannot be
/// opened or the write fails) and writes the trace.
void write_chrome_trace_file(const std::string& path, const Snapshot& snap,
                             const std::string& process_name);

}  // namespace geogossip::obs

#endif  // GEOGOSSIP_OBS_TRACE_EXPORT_HPP

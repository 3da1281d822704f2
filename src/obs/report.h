#ifndef UJOIN_OBS_REPORT_H_
#define UJOIN_OBS_REPORT_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace ujoin {
namespace obs {

/// Schema identifier and version of the run-report envelope.  Bump the
/// version on any incompatible key change; the schema is documented in
/// DESIGN.md "Observability".  Version 2 dropped the constant
/// kernel-form key; version 3 dropped the self-join's batch-size option
/// from `options`.
inline constexpr const char* kRunReportSchema = "ujoin.run_report";
inline constexpr int kRunReportSchemaVersion = 3;

/// \brief One top-level section of a run report: a key plus a pre-rendered
/// JSON value.
///
/// Sections keep the envelope generic: obs does not depend on JoinStats or
/// JoinOptions; callers serialize those with their own ToJson and pass the
/// bytes here.  `json` must be a complete, valid JSON value.
struct ReportSection {
  std::string key;
  std::string json;
};

/// \brief Renders the run-report envelope shared by `ujoin_cli
/// join|search --metrics-out` and every BENCH_*.json:
///
///   {"schema":"ujoin.run_report","schema_version":3,
///    "command":<command>, <sections in order>}
///
/// Section keys in common use: "options", "stats" (JoinStats::ToJson),
/// "metrics" (Recorder::ToJson), "results" (bench-specific measurements).
/// Serialization is deterministic: same inputs, same bytes.
std::string RenderRunReport(std::string_view command,
                            const std::vector<ReportSection>& sections);

/// Writes RenderRunReport to `path`.
Status WriteRunReport(const std::string& path, std::string_view command,
                      const std::vector<ReportSection>& sections);

}  // namespace obs
}  // namespace ujoin

#endif  // UJOIN_OBS_REPORT_H_

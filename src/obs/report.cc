#include "obs/report.h"

#include <fstream>

#include "obs/json_writer.h"

namespace ujoin {
namespace obs {

std::string RenderRunReport(std::string_view command,
                            const std::vector<ReportSection>& sections) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String(kRunReportSchema);
  w.Key("schema_version");
  w.Int(kRunReportSchemaVersion);
  w.Key("command");
  w.String(command);
  for (const ReportSection& section : sections) {
    w.Key(section.key);
    w.RawValue(section.json);
  }
  w.EndObject();
  return w.TakeString();
}

Status WriteRunReport(const std::string& path, std::string_view command,
                      const std::vector<ReportSection>& sections) {
  const std::string json = RenderRunReport(command, sections);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::OK();
}

}  // namespace obs
}  // namespace ujoin

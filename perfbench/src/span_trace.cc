#include "span_trace.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "obs/json_writer.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kText: return "text";
    case Layer::kIndex: return "index";
    case Layer::kFilter: return "filter";
    case Layer::kVerify: return "verify";
    case Layer::kJoin: return "join";
    case Layer::kServe: return "serve";
    case Layer::kObs: return "obs";
    case Layer::kReplay: return "replay";
  }
  return "?";
}

namespace {

std::vector<int64_t> SelfNs(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] += spans[i].end_ns - spans[i].start_ns;
    if (spans[i].parent != 0) {
      self[spans[i].parent - 1] -= spans[i].end_ns - spans[i].start_ns;
    }
  }
  return self;
}

}  // namespace

std::vector<double> SpanTrace::SelfSecondsByLayer() const {
  std::vector<double> out(kNumLayers, 0.0);
  const std::vector<int64_t> self = SelfNs(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[static_cast<size_t>(spans_[i].layer)] +=
        1e-9 * static_cast<double>(self[i]);
  }
  return out;
}

double SpanTrace::RootSeconds() const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.parent == 0) ns += s.end_ns - s.start_ns;
  }
  return 1e-9 * static_cast<double>(ns);
}

double SpanTrace::MinSelfSeconds() const {
  int64_t min_ns = 0;
  for (int64_t ns : SelfNs(spans_)) min_ns = std::min(min_ns, ns);
  return 1e-9 * static_cast<double>(min_ns);
}

std::vector<double> SpanTrace::DurationsMs(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(1e-6 * static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

double SpanTrace::NameSeconds(const char* name) const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) ns += s.end_ns - s.start_ns;
  }
  return 1e-9 * static_cast<double>(ns);
}

int64_t SpanTrace::Count(const char* name) const {
  int64_t n = 0;
  for (const Span& s : spans_) n += std::strcmp(s.name, name) == 0 ? 1 : 0;
  return n;
}

bool SpanTrace::WriteChromeJson(const std::string& path) const {
  ujoin::obs::JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.BeginObject();
    w.Key("name");
    w.String(s.name);
    w.Key("cat");
    w.String(LayerName(s.layer));
    w.Key("ph");
    w.String("X");
    w.Key("ts");
    w.Double(static_cast<double>(s.start_ns) / 1e3);
    w.Key("dur");
    w.Double(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    w.Key("pid");
    w.Int(1);
    w.Key("tid");
    w.Int(0);
    w.Key("args");
    w.BeginObject();
    w.Key("id");
    w.Int(static_cast<int64_t>(i + 1));
    w.Key("parent");
    w.Int(s.parent);
    w.Key("item");
    w.Int(s.item);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.EndObject();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const std::string json = w.TakeString();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  return static_cast<bool>(out);
}

}  // namespace perfbench

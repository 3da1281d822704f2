#include "serve/protocol.h"

#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace ujoin {
namespace serve {

bool LineFramer::NextLine(std::string* line) {
  const size_t nl = buf_.find('\n', pos_);
  if (nl == std::string::npos) {
    // Compact once the consumed prefix dominates, so a long-lived
    // connection does not grow the buffer without bound.
    if (pos_ > 0 && pos_ >= buf_.size() / 2) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    return false;
  }
  size_t end = nl;
  if (end > pos_ && buf_[end - 1] == '\r') --end;
  line->assign(buf_, pos_, end - pos_);
  pos_ = nl + 1;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return true;
}

std::string RenderHitsResponse(int64_t seq, const std::vector<SearchHit>& hits,
                               bool inexact) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("seq");
  w.Int(seq);
  w.Key("status");
  w.String("ok");
  w.Key("inexact");
  w.Bool(inexact);
  w.Key("hits");
  w.BeginArray();
  for (const SearchHit& hit : hits) {
    w.BeginObject();
    w.Key("id");
    w.Int(hit.id);
    w.Key("probability");
    w.Double(hit.probability);
    w.Key("exact");
    w.Bool(hit.exact);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::string out = w.TakeString();
  out += '\n';
  return out;
}

std::string RenderErrorResponse(int64_t seq, std::string_view message) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("seq");
  w.Int(seq);
  w.Key("status");
  w.String("error");
  w.Key("error");
  w.String(message);
  w.EndObject();
  std::string out = w.TakeString();
  out += '\n';
  return out;
}

std::string RenderBusyResponse() {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("seq");
  w.Int(0);
  w.Key("status");
  w.String("busy");
  w.Key("error");
  w.String("server at connection capacity");
  w.EndObject();
  std::string out = w.TakeString();
  out += '\n';
  return out;
}

std::string BatchGuard::ViolationMessage() const {
  if (max_requests_ > 0 && requests_ > max_requests_) {
    return "batch exceeds request cap of " + std::to_string(max_requests_) +
           " queries; send a blank separator line";
  }
  return "batch exceeds byte cap of " + std::to_string(max_bytes_) +
         " bytes; send a blank separator line";
}

std::string RenderServeHealth(const SimilaritySearcher& searcher) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("status");
  w.String("ok");
  w.Key("searcher_format_version");
  w.Int(static_cast<int64_t>(kSearcherFormatVersion));
  w.Key("obs");
#ifdef UJOIN_OBS_DISABLED
  w.Bool(false);
#else
  w.Bool(true);
#endif
  w.Key("metrics_schema_version");
  w.Int(obs::kMetricsSchemaVersion);
  w.Key("collection_size");
  w.Int(static_cast<int64_t>(searcher.collection().size()));
  w.Key("index_length_buckets");
  w.Int(searcher.NumIndexLengthBuckets());
  w.Key("index_segments");
  w.Int(searcher.NumIndexSegments());
  w.EndObject();
  std::string out = w.TakeString();
  out += '\n';
  return out;
}

}  // namespace serve
}  // namespace ujoin

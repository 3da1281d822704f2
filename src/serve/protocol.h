#ifndef UJOIN_SERVE_PROTOCOL_H_
#define UJOIN_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "join/search.h"

namespace ujoin {
namespace serve {

// ---------------------------------------------------------------------------
// Wire protocol of the resident search service (DESIGN.md "Resident search
// service").
//
// Requests are newline-delimited text frames on a plain TCP connection:
//
//   <uncertain string in the paper's notation>\n     one query
//   \n                                               batch separator
//
// A query line is exactly what UncertainString::Parse accepts (and what
// `ujoin_cli datagen` writes), e.g. `A{(C,0.5),(G,0.5)}AC`.  A blank line
// ends the current batch: the server folds the batch's metrics into its
// run-level recorder and pushes a fresh /metrics snapshot.  Closing the
// connection (or half-closing the write side) ends the final batch the same
// way.
//
// Every query line gets exactly one JSON response line, rendered through the
// deterministic obs::JsonWriter (no whitespace, shortest round-trip
// doubles), so a client that knows its own request sequence numbers can
// compare response bytes against a local re-rendering:
//
//   {"seq":N,"status":"ok","inexact":false,"hits":[
//       {"id":3,"probability":0.75,"exact":true},...]}
//   {"seq":N,"status":"error","error":"<message>"}
//
// `seq` counts request lines per connection, starting at 1; blank separator
// lines produce no response and do not advance it.  `inexact` is true when
// any candidate of the query was decided from its CDF bounds instead of
// exact verification (per-query budget or deadline, see
// JoinOptions::SearchLimits): the reported hits are still certified
// (lower bound > τ) but the set may be missing matches whose bounds were
// inconclusive.
//
// A connection rejected by admission control receives one
//   {"seq":0,"status":"busy","error":"..."}
// line and is closed.  An oversized request line (no newline within the
// configured cap) gets one seq-bearing error response and the connection is
// closed, because the frame boundary is lost.
// ---------------------------------------------------------------------------

/// \brief Splits a received byte stream into newline-terminated frames with
/// a bounded line length.
///
/// The framer owns one growing buffer per connection; steady state is
/// append + in-place scan.  A complete line longer than the cap is still
/// returned (the caller answers it with an error and keeps the connection:
/// framing is intact).  A *partial* line that already exceeds the cap is the
/// unrecoverable case — no frame boundary can be found — reported by
/// PartialOverLimit().
class LineFramer {
 public:
  explicit LineFramer(size_t max_line_bytes) : max_(max_line_bytes) {}

  void Append(const char* data, size_t n) { buf_.append(data, n); }

  /// Moves the next complete line (without the '\n'; one trailing '\r' is
  /// stripped for telnet-style clients) into `*line`.  Returns false when
  /// no full line is buffered.
  bool NextLine(std::string* line);

  /// True when the buffered partial line exceeds the cap: the connection
  /// cannot be re-synchronized and must be closed after an error response.
  bool PartialOverLimit() const { return buf_.size() - pos_ > max_; }

  size_t max_line_bytes() const { return max_; }

 private:
  size_t max_;
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix of buf_
};

/// \brief Per-batch request-count and byte caps (serve hardening).
///
/// A client that streams requests without ever sending a batch separator
/// would otherwise make the server buffer responses and per-batch state
/// without bound.  The guard counts request lines and their bytes since the
/// last separator; the first line that exceeds either cap is answered with a
/// structured error and the connection is closed (like an oversized line,
/// the batch contract is broken).  A cap <= 0 is unlimited.
class BatchGuard {
 public:
  BatchGuard(int64_t max_requests, int64_t max_bytes)
      : max_requests_(max_requests), max_bytes_(max_bytes) {}

  /// Accounts one request line of `line_bytes` bytes.  Returns false when
  /// the line pushes the batch over either cap (the line is still counted,
  /// so ViolationMessage describes it).
  bool AddRequest(size_t line_bytes) {
    ++requests_;
    bytes_ += static_cast<int64_t>(line_bytes);
    return !OverLimit();
  }

  /// Starts the next batch (call at each batch separator).
  void Reset() {
    requests_ = 0;
    bytes_ = 0;
  }

  bool OverLimit() const {
    return (max_requests_ > 0 && requests_ > max_requests_) ||
           (max_bytes_ > 0 && bytes_ > max_bytes_);
  }

  /// Human-readable description of the tripped cap for the error response.
  std::string ViolationMessage() const;

  int64_t requests() const { return requests_; }
  int64_t bytes() const { return bytes_; }

 private:
  int64_t max_requests_;
  int64_t max_bytes_;
  int64_t requests_ = 0;
  int64_t bytes_ = 0;
};

/// Renders the success response line (newline-terminated) for request `seq`.
/// `hits` must already be in result order (Search returns them sorted by
/// id); rendering is byte-deterministic.
std::string RenderHitsResponse(int64_t seq, const std::vector<SearchHit>& hits,
                               bool inexact);

/// Renders the error response line (newline-terminated) for request `seq`.
std::string RenderErrorResponse(int64_t seq, std::string_view message);

/// Renders the admission-control rejection line (newline-terminated);
/// `seq` is 0 because no request was read.
std::string RenderBusyResponse();

/// Renders the serve layer's /healthz body: a JSON build-info block
/// (status, searcher format version, kernel form, obs on/off, metrics schema,
/// collection and index shape) so operators can identify what is serving.
/// Newline-terminated, byte-deterministic for a fixed build and searcher.
std::string RenderServeHealth(const SimilaritySearcher& searcher);

}  // namespace serve
}  // namespace ujoin

#endif  // UJOIN_SERVE_PROTOCOL_H_

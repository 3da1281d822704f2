// ujoin-effects-fixture: as=src/serve/search_server.cc
//
// Seeded violations: the server rendering JSON itself instead of going
// through the shared renderers in protocol.cc / the obs::QueryLog API.
// Ad-hoc rendering creates a serialization path no byte-golden test or
// schema validator covers.  Every mention of the type counts (including
// the stub declaration below): the check is token-based by design, so
// even smuggling the writer in through an alias or member is flagged.
namespace ujoin {

namespace obs {
class JsonWriter {  // flagged: query-log-api: even the stub declaration
 public:
  void BeginObject();
  void EndObject();
};
}  // namespace obs

namespace serve {

void HandOff(int fd) {
  obs::JsonWriter w;  // flagged: query-log-api: serve-layer JSON outside protocol.cc
  w.BeginObject();
  w.EndObject();
  (void)fd;
}

obs::JsonWriter* LeakWriter();  // flagged: query-log-api: even the type name is banned

}  // namespace serve
}  // namespace ujoin

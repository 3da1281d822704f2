// ujoin-effects-fixture: as=src/serve/protocol.cc contract=query-log-api
//
// Scoping check: protocol.cc is the serve layer's designated rendering
// TU — the wire responses and the /healthz body are built here, covered
// by the byte-golden protocol tests — so JsonWriter use is allowed.
namespace ujoin {

namespace obs {
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
};
}  // namespace obs

namespace serve {

void RenderSomething() {
  obs::JsonWriter w;  // in protocol.cc: allowed
  w.BeginObject();
  w.EndObject();
}

}  // namespace serve
}  // namespace ujoin

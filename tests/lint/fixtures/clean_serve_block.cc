// ujoin-effects-fixture: as=src/serve/search_server.cc contract=serve-steady
//
// Clean twin of bad_serve_block.cc: the handler only try-locks and the
// snapshot path never sleeps.  The blocking calls live in Stop(), which
// drains and joins the worker at shutdown and no serve root reaches.
#include <condition_variable>
#include <mutex>
#include <thread>

namespace ujoin::serve {

class SearchServer {
 public:
  void HandleConnection(int fd) {
    std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
    if (lock.owns_lock()) served_ += fd;
  }

  void PushSnapshotLocked() { snapshots_ += 1; }

  void Stop() {
    std::unique_lock<std::mutex> lock(mu_);
    drained_.wait(lock);
    worker_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable drained_;
  std::thread worker_;
  long served_ = 0;
  long snapshots_ = 0;
};

}  // namespace ujoin::serve

// ujoin-effects-fixture: as=src/serve/search_server.cc
//
// Seeded serve-steady violations: a request handler that waits on a
// condition variable for a free worker slot, and a snapshot path that
// sleeps to rate-limit itself.  Either one stalls every query fold behind
// a slow scrape or a stuck peer.
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace ujoin::serve {

class SearchServer {
 public:
  void HandleConnection(int fd) {
    std::unique_lock<std::mutex> lock(mu_);
    slot_free_.wait(lock);  // flagged: serve-steady (condition_variable wait)
    served_ += fd;
  }

  void PushSnapshotLocked() {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));  // flagged: serve-steady (sleep)
    snapshots_ += 1;
  }

 private:
  std::mutex mu_;
  std::condition_variable slot_free_;
  long served_ = 0;
  long snapshots_ = 0;
};

}  // namespace ujoin::serve

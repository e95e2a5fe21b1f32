// Minimal epoll event loop for the cache server.
//
// One loop per worker thread, level-triggered, no thread-per-connection:
// the loop multiplexes a listening socket, its connections, and a wakeup
// eventfd through one epoll_wait. Level-triggered is the deliberate choice
// over edge-triggered: a handler that stops reading mid-buffer (e.g. to
// bound per-tick work) is re-notified on the next wait instead of hanging,
// which removes the classic ET starvation/lost-wakeup bug class at the
// cost of a few spurious wakeups the cache's read-mostly load never
// notices.
//
// Threading contract: Add/Mod/Del/RunTimer state belongs to the loop's own
// thread. Cross-thread work enters ONLY through Post(fn) (mutex-protected
// queue + eventfd wakeup) and Stop(); everything else is thread-confined,
// which is what lets connection maps live without locks.

#ifndef MCCUCKOO_SERVER_EVENT_LOOP_H_
#define MCCUCKOO_SERVER_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"

namespace mccuckoo {
namespace server {

class EventLoop {
 public:
  /// Called with the epoll event mask (EPOLLIN | EPOLLOUT | ...).
  using IoCallback = std::function<void(uint32_t)>;

  EventLoop() = default;
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll instance and wakeup eventfd.
  Status Init();

  /// Registers `fd` for `events` (level-triggered). Loop thread only.
  Status Add(int fd, uint32_t events, IoCallback cb);

  /// Changes the interest mask of a registered fd. Loop thread only.
  Status Mod(int fd, uint32_t events);

  /// Deregisters `fd` (does not close it). Safe to call from inside the
  /// fd's own callback: dispatch holds a borrowed reference.
  void Del(int fd);

  /// Runs until Stop(). Dispatches I/O callbacks, posted tasks, and the
  /// timer tick.
  void Run();

  /// Stops the loop from any thread.
  void Stop();

  /// Enqueues `fn` to run on the loop thread; wakes the loop. Any thread.
  void Post(std::function<void()> fn);

  /// Arranges `fn` to run on the loop thread `interval_ms` after the
  /// previous run returned (the first `interval_ms` from now), so a run
  /// longer than the interval still leaves the loop an interval of I/O.
  /// Coarse: piggybacked on the epoll_wait timeout, so late ticks are
  /// possible under load — fine for a TTL sweep. One timer per loop.
  void SetTimer(uint64_t interval_ms, std::function<void()> fn);

 private:
  void DrainPosted();

  int epfd_ = -1;
  int wake_fd_ = -1;
  // Sticky: a Stop() that lands before Run() begins still stops it.
  std::atomic<bool> stop_{false};
  // shared_ptr so a callback that Del()s its own fd (or another's) during
  // dispatch cannot free a std::function still executing.
  std::unordered_map<int, std::shared_ptr<IoCallback>> callbacks_;
  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
  uint64_t timer_interval_ms_ = 0;
  uint64_t timer_next_ns_ = 0;
  std::function<void()> timer_fn_;
};

}  // namespace server
}  // namespace mccuckoo

#endif  // MCCUCKOO_SERVER_EVENT_LOOP_H_

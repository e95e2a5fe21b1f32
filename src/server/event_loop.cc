#include "src/server/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/obs/timing.h"

namespace mccuckoo {
namespace server {

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epfd_ >= 0) ::close(epfd_);
}

Status EventLoop::Init() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) {
    return Status::IOError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    return Status::IOError(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    return Status::IOError(std::string("epoll_ctl(wakeup): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status EventLoop::Add(int fd, uint32_t events, IoCallback cb) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    return Status::IOError(std::string("epoll_ctl(add): ") +
                           std::strerror(errno));
  }
  callbacks_[fd] = std::make_shared<IoCallback>(std::move(cb));
  return Status::OK();
}

Status EventLoop::Mod(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    return Status::IOError(std::string("epoll_ctl(mod): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

void EventLoop::Del(int fd) {
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  callbacks_.erase(fd);
}

void EventLoop::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> l(post_mu_);
    posted_.push_back(std::move(fn));
  }
  const uint64_t one = 1;
  // A full eventfd counter (EAGAIN) still wakes the loop; best-effort.
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::SetTimer(uint64_t interval_ms, std::function<void()> fn) {
  timer_interval_ms_ = interval_ms;
  timer_fn_ = std::move(fn);
  timer_next_ns_ = NowNs() + interval_ms * 1'000'000ull;
}

void EventLoop::DrainPosted() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> l(post_mu_);
    tasks.swap(posted_);
  }
  for (auto& t : tasks) t();
}

void EventLoop::Run() {
  epoll_event events[64];
  while (!stop_.load(std::memory_order_acquire)) {
    int timeout_ms = -1;
    if (timer_interval_ms_ != 0) {
      const uint64_t now = NowNs();
      timeout_ms = now >= timer_next_ns_
                       ? 0
                       : static_cast<int>((timer_next_ns_ - now) / 1'000'000ull)
                             + 1;
    }
    const int n = ::epoll_wait(epfd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drain;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      const auto it = callbacks_.find(fd);
      if (it == callbacks_.end()) continue;  // Removed by an earlier event.
      const std::shared_ptr<IoCallback> cb = it->second;
      (*cb)(events[i].events);
    }
    DrainPosted();
    if (timer_interval_ms_ != 0 && NowNs() >= timer_next_ns_) {
      if (timer_fn_) timer_fn_();
      // Due one interval after this tick ends, not after it began: a tick
      // longer than its interval would otherwise be due again at once, and
      // the loop would serve one epoll_wait batch per tick.
      timer_next_ns_ = NowNs() + timer_interval_ms_ * 1'000'000ull;
    }
  }
  // A final drain so tasks posted right before Stop() still run.
  DrainPosted();
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

}  // namespace server
}  // namespace mccuckoo

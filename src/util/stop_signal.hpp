#pragma once
// StopSignal: a stop flag that a background thread naps on.  The thread
// sleeps through wait_for(); request() sets the flag and wakes it at once,
// so the owner's join() returns without sleeping out the rest of a nap.
// Used by the kernel watchdog and the metrics sampler.

#include <chrono>
#include <condition_variable>
#include <mutex>

namespace pls::util {

class StopSignal {
 public:
  /// Set the flag and wake every waiter.
  void request() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
  }

  /// Clear the flag, before a new thread starts waiting on it.
  void reset() {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = false;
  }

  bool requested() const {
    std::lock_guard<std::mutex> lk(mu_);
    return stop_;
  }

  /// Sleep for up to `d`; returns true, as soon as it is set, when a stop
  /// was requested.
  template <class Rep, class Period>
  bool wait_for(std::chrono::duration<Rep, Period> d) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, d, [this] { return stop_; });
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace pls::util

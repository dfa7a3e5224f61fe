#include "common/executor.h"

#include <algorithm>

#ifdef __linux__
#include <pthread.h>
#endif

#include "common/logging.h"
#include "common/metrics.h"

namespace chariots {

namespace {

metrics::Gauge* RuntimeThreadsGauge() {
  static metrics::Gauge* g =
      metrics::Registry::Default().GetGauge("chariots.runtime.threads");
  return g;
}

/// High-water mark of the census: the steady-state thread budget survives
/// teardown, so bench reports written after Stop() still show it.
metrics::Gauge* RuntimeThreadsPeakGauge() {
  static metrics::Gauge* g =
      metrics::Registry::Default().GetGauge("chariots.runtime.threads_peak");
  return g;
}

}  // namespace

ScopedRuntimeThread::ScopedRuntimeThread(const std::string& name) {
#ifdef __linux__
  // The kernel limit is 16 bytes including the terminator.
  std::string short_name = name.substr(0, 15);
  pthread_setname_np(pthread_self(), short_name.c_str());
#else
  (void)name;
#endif
  RuntimeThreadsGauge()->Add(1);
  RuntimeThreadsPeakGauge()->MaxOf(RuntimeThreadsGauge()->Value());
}

ScopedRuntimeThread::~ScopedRuntimeThread() { RuntimeThreadsGauge()->Add(-1); }

int64_t RuntimeThreadCount() { return RuntimeThreadsGauge()->Value(); }

int64_t RuntimeThreadPeak() { return RuntimeThreadsPeakGauge()->Value(); }

// ---------------------------------------------------------------------------
// Timer state
// ---------------------------------------------------------------------------

struct Executor::TimerToken::TimerState {
  std::function<void()> fn;
  int64_t period_nanos = 0;  // 0 = one-shot
  Lane lane = Lane::kWorker;

  std::mutex mu;
  std::condition_variable cv;
  bool cancelled = false;
  bool running = false;
  std::thread::id runner;
};

void Executor::TimerToken::Cancel() {
  if (!state_) return;
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cancelled = true;
  if (state_->running && state_->runner == std::this_thread::get_id()) {
    // Cancel from inside the callback: the current run finishes, no rearm.
    return;
  }
  state_->cv.wait(lock, [&] { return !state_->running; });
}

struct Executor::Shard {
  std::mutex mu;
  std::deque<std::function<void()>> tasks;
};

struct Executor::TimerEntry {
  int64_t due_nanos = 0;
  uint64_t seq = 0;  // FIFO tie-break for equal deadlines
  std::shared_ptr<TimerToken::TimerState> state;

  bool operator>(const TimerEntry& other) const {
    if (due_nanos != other.due_nanos) return due_nanos > other.due_nanos;
    return seq > other.seq;
  }
};

// ---------------------------------------------------------------------------
// Construction / default instance
// ---------------------------------------------------------------------------

namespace {

std::mutex g_default_mu;
Executor::Options* g_default_options = nullptr;
bool g_default_built = false;

size_t ResolveThreads(size_t requested) {
  if (requested > 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 2;
  return std::max<size_t>(2, std::min<size_t>(8, hw));
}

}  // namespace

Executor::Executor() : Executor(Options{}) {}

Executor::Executor(Options options) : name_(options.name) {
  manual_ = options.manual_clock;
  clock_ = manual_ != nullptr
               ? static_cast<Clock*>(manual_)
               : (options.clock != nullptr ? options.clock
                                           : SystemClock::Default());
  size_t n = ResolveThreads(options.num_threads);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  if (manual_ == nullptr) {
    timer_thread_ = std::thread([this] { TimerLoop(); });
  }
}

Executor::~Executor() { Shutdown(); }

Executor* Executor::Default() {
  static Executor* instance = [] {
    std::lock_guard<std::mutex> lock(g_default_mu);
    g_default_built = true;
    Options opts = g_default_options != nullptr ? *g_default_options
                                                : Options{};
    if (opts.name == "exec") opts.name = "chx";
    return new Executor(opts);  // leaked: see header
  }();
  return instance;
}

void Executor::ConfigureDefault(Options options) {
  std::lock_guard<std::mutex> lock(g_default_mu);
  if (g_default_built) {
    LOG_WARN << "Executor::ConfigureDefault called after Default() was "
                "built; ignored";
    return;
  }
  delete g_default_options;
  g_default_options = new Options(std::move(options));
}

// ---------------------------------------------------------------------------
// Worker lane
// ---------------------------------------------------------------------------

bool Executor::Submit(std::function<void()> fn) {
  if (shutdown_.load(std::memory_order_acquire)) {
    LOG_EVERY_N_SEC(kWarn, 5) << "executor '" << name_
                             << "': Submit after shutdown; task dropped";
    return false;
  }
  size_t idx = submit_rr_.fetch_add(1, std::memory_order_relaxed) %
               shards_.size();
  // Increment before pushing so a worker can never decrement below zero by
  // popping a task whose increment is still in flight.
  pending_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(shards_[idx]->mu);
    shards_[idx]->tasks.push_back(std::move(fn));
  }
  {
    // Acquiring the sleep mutex (even empty) closes the race with a worker
    // that checked pending_ and is about to wait.
    std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  sleep_cv_.notify_one();
  return true;
}

bool Executor::PopTask(size_t index, std::function<void()>* task) {
  // Own queue first (FIFO), then steal from the back of the others.
  {
    Shard& own = *shards_[index];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      *task = std::move(own.tasks.front());
      own.tasks.pop_front();
      return true;
    }
  }
  for (size_t off = 1; off < shards_.size(); ++off) {
    Shard& other = *shards_[(index + off) % shards_.size()];
    std::lock_guard<std::mutex> lock(other.mu);
    if (!other.tasks.empty()) {
      *task = std::move(other.tasks.back());
      other.tasks.pop_back();
      return true;
    }
  }
  return false;
}

void Executor::WorkerLoop(size_t index) {
  ScopedRuntimeThread census(name_ + "/" + std::to_string(index));
  for (;;) {
    std::function<void()> task;
    if (PopTask(index, &task)) {
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      running_.fetch_add(1, std::memory_order_acq_rel);
      task();
      running_.fetch_sub(1, std::memory_order_acq_rel);
      tasks_run_.fetch_add(1, std::memory_order_relaxed);
      if (idle_waiters_.load(std::memory_order_acquire) > 0) {
        // Taking the mutex (even empty) closes the race with a waiter that
        // checked the counters and is about to wait.
        { std::lock_guard<std::mutex> lock(sleep_mu_); }
        idle_cv_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    if (pending_.load(std::memory_order_acquire) > 0) {
      // A push is in flight (pending_ is incremented before the enqueue) or
      // another worker is racing us; retry rather than sleep past it.
      lock.unlock();
      std::this_thread::yield();
      continue;
    }
    if (shutdown_.load(std::memory_order_acquire)) return;
    sleep_cv_.wait(lock, [&] {
      return pending_.load(std::memory_order_acquire) > 0 ||
             shutdown_.load(std::memory_order_acquire);
    });
  }
}

// ---------------------------------------------------------------------------
// Timer lane
// ---------------------------------------------------------------------------

Executor::TimerToken Executor::ScheduleAt(int64_t at_nanos,
                                          std::function<void()> fn,
                                          Lane lane) {
  if (shutdown_.load(std::memory_order_acquire)) return TimerToken();
  auto state = std::make_shared<TimerToken::TimerState>();
  state->fn = std::move(fn);
  state->period_nanos = 0;
  state->lane = lane;
  Arm(state, at_nanos);
  return TimerToken(state);
}

Executor::TimerToken Executor::ScheduleAfter(int64_t delay_nanos,
                                             std::function<void()> fn,
                                             Lane lane) {
  return ScheduleAt(clock_->NowNanos() + delay_nanos, std::move(fn), lane);
}

Executor::TimerToken Executor::ScheduleEvery(int64_t period_nanos,
                                             std::function<void()> fn,
                                             Lane lane) {
  if (shutdown_.load(std::memory_order_acquire)) return TimerToken();
  auto state = std::make_shared<TimerToken::TimerState>();
  state->fn = std::move(fn);
  state->period_nanos = period_nanos > 0 ? period_nanos : 1;
  state->lane = lane;
  Arm(state, clock_->NowNanos() + state->period_nanos);
  return TimerToken(state);
}

void Executor::Arm(std::shared_ptr<TimerToken::TimerState> state,
                   int64_t due_nanos) {
  bool is_head = false;
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    if (shutdown_.load(std::memory_order_acquire)) return;
    is_head = timers_.empty() || due_nanos < timers_.top().due_nanos;
    timers_.push(TimerEntry{due_nanos, timer_seq_++, std::move(state)});
  }
  if (is_head) timer_cv_.notify_one();
}

void Executor::RunTimer(const std::shared_ptr<TimerToken::TimerState>& state,
                        int64_t due_nanos) {
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->cancelled) return;
    state->running = true;
    state->runner = std::this_thread::get_id();
  }
  state->fn();
  bool rearm = false;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->running = false;
    rearm = state->period_nanos > 0 && !state->cancelled;
  }
  state->cv.notify_all();
  if (!rearm) return;
  // Fixed rate: the next run is due one period after this run was *due*, so
  // wake-up and run time do not accumulate as drift. Periods missed while
  // the callback overran (or the worker lane was backed up) are skipped,
  // not fired in a burst.
  const int64_t period = state->period_nanos;
  int64_t next = due_nanos + period;
  int64_t now = clock_->NowNanos();
  if (next < now) next += ((now - next) / period + 1) * period;
  Arm(state, next);
}

void Executor::TimerLoop() {
  ScopedRuntimeThread census(name_ + "/tmr");
  std::unique_lock<std::mutex> lock(timer_mu_);
  while (!shutdown_.load(std::memory_order_acquire)) {
    if (timers_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    int64_t now = clock_->NowNanos();
    int64_t due = timers_.top().due_nanos;
    if (due > now) {
      timer_cv_.wait_for(lock, std::chrono::nanoseconds(due - now));
      continue;
    }
    TimerEntry entry = timers_.top();
    timers_.pop();
    lock.unlock();
    if (entry.state->lane == Lane::kTimer) {
      // Inline on the timer thread: reserved for non-blocking callbacks
      // (e.g. transport response delivery). See header.
      RunTimer(entry.state, entry.due_nanos);
    } else {
      std::shared_ptr<TimerToken::TimerState> state = entry.state;
      int64_t due = entry.due_nanos;
      Submit([this, state, due] { RunTimer(state, due); });
    }
    lock.lock();
  }
}

// ---------------------------------------------------------------------------
// Virtual time
// ---------------------------------------------------------------------------

void Executor::AdvanceUntil(int64_t target_nanos) {
  if (manual_ == nullptr) {
    LOG_ERROR << "executor '" << name_
              << "': AdvanceUntil on a real-time executor; ignored";
    return;
  }
  for (;;) {
    TimerEntry entry;
    {
      std::lock_guard<std::mutex> lock(timer_mu_);
      if (timers_.empty() || timers_.top().due_nanos > target_nanos) break;
      entry = timers_.top();
      timers_.pop();
    }
    // Never step the clock backwards (entries already due stay at now).
    if (entry.due_nanos > manual_->NowNanos()) manual_->Set(entry.due_nanos);
    RunTimer(entry.state, entry.due_nanos);
  }
  if (target_nanos > manual_->NowNanos()) manual_->Set(target_nanos);
}

void Executor::AdvanceBy(int64_t delta_nanos) {
  if (manual_ == nullptr) {
    LOG_ERROR << "executor '" << name_
              << "': AdvanceBy on a real-time executor; ignored";
    return;
  }
  AdvanceUntil(manual_->NowNanos() + delta_nanos);
}

void Executor::WaitIdle() {
  idle_waiters_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::unique_lock<std::mutex> lock(sleep_mu_);
    idle_cv_.wait(lock, [&] {
      return (pending_.load(std::memory_order_acquire) == 0 &&
              running_.load(std::memory_order_acquire) == 0) ||
             shutdown_.load(std::memory_order_acquire);
    });
  }
  idle_waiters_.fetch_sub(1, std::memory_order_acq_rel);
}

// ---------------------------------------------------------------------------
// Shutdown
// ---------------------------------------------------------------------------

void Executor::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    // Pending timers are dropped; their tokens' Cancel() still works
    // (nothing is running, so it returns immediately).
    while (!timers_.empty()) timers_.pop();
  }
  timer_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  sleep_cv_.notify_all();
  idle_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Workers drained every queued task before exiting (they only return when
  // pending_ is 0 and shutdown_ is set).
}

}  // namespace chariots

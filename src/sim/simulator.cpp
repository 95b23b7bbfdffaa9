#include "sim/simulator.h"

#include "util/check.h"

namespace caa::sim {

Simulator::Simulator() {
  logger_.set_time_source([this] { return now_; });
  obs_.bind_clock(&now_);
}

EventId Simulator::schedule_after(Time delay, EventFn fn) {
  CAA_CHECK_MSG(delay >= 0, "negative delay");
  // New events inherit the flight-recorder record active right now, so the
  // causal chain survives zero-delay continuations and timers.
  return queue_.schedule(now_ + delay, std::move(fn),
                         obs_.recorder().current_cause());
}

EventId Simulator::schedule_at(Time at, EventFn fn) {
  CAA_CHECK_MSG(at >= now_, "scheduling into the past");
  return queue_.schedule(at, std::move(fn), obs_.recorder().current_cause());
}

void Simulator::post_at(Time at, EventFn fn) {
  CAA_CHECK_MSG(at >= now_, "posting into the past");
  queue_.post(at, std::move(fn), obs_.recorder().current_cause());
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto fired = queue_.pop();
  CAA_CHECK(fired.time >= now_);
  now_ = fired.time;
  // Telemetry hooks ride the step loop — never scheduled events — so arming
  // them cannot change event counts or behaviour checksums. Both are one
  // time compare when disarmed. Sampling happens BEFORE the event executes:
  // an event at exactly a window boundary counts into the new window.
  obs::TimeSeries& ts = obs_.timeseries();
  if (ts.armed()) {
    obs_.health().set(obs::Gauge::kSimQueueDepth,
                      static_cast<std::int64_t>(queue_.size()));
    ts.maybe_roll(now_);
  }
  obs_.watchdog().maybe_poll(now_);
  obs::FlightRecorder& recorder = obs_.recorder();
  recorder.set_current_cause(fired.cause);
  fired.fn();
  recorder.set_current_cause(0);
  return true;
}

std::size_t Simulator::step_block() {
  if (queue_.empty()) return 0;
  const Time at = queue_.next_time();
  std::size_t fired = 0;
  while (!queue_.empty() && queue_.next_time() <= at) {
    step();
    ++fired;
  }
  return fired;
}

std::size_t Simulator::run_to_quiescence(std::size_t max_events) {
  std::size_t fired = 0;
  while (step()) {
    ++fired;
    CAA_CHECK_MSG(fired < max_events,
                  "simulation did not quiesce (livelock?)");
  }
  return fired;
}

std::size_t Simulator::run_until(Time deadline) {
  std::size_t fired = 0;
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    step();
    ++fired;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

}  // namespace caa::sim

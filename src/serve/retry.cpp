#include "serve/retry.hpp"

#include <chrono>
#include <thread>

#include "serve/telemetry.hpp"

namespace udb::serve {

namespace {

// splitmix64: derives a well-mixed, deterministic trace id from (seed, id).
// Deterministic so the fault harness can correlate traces across runs;
// forced nonzero because 0 means "untraced" on the wire.
std::uint64_t derive_trace_id(std::uint64_t seed, std::uint64_t request_id) {
  std::uint64_t z = seed ^ (request_id * 0x9E3779B97F4A7C15ull);
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z = z ^ (z >> 31);
  return z == 0 ? 1 : z;
}

}  // namespace

bool retryable_status(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kDataLoss:
    case StatusCode::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

RetryingClient::RetryingClient(std::vector<std::uint16_t> ports,
                               RetryPolicy policy,
                               obs::MetricsRegistry* metrics,
                               obs::Tracer* tracer)
    : ports_(std::move(ports)),
      policy_(policy),
      metrics_(metrics),
      tracer_(tracer),
      jitter_state_(policy.jitter_seed | 1u),
      epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t RetryingClient::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void RetryingClient::advance_endpoint() {
  if (ports_.size() < 2) return;
  endpoint_ = (endpoint_ + 1) % ports_.size();
  if (metrics_ != nullptr)
    metrics_->add(obs::Counter::kServeClientFailovers);
}

void RetryingClient::backoff_sleep(int retry_number, std::uint64_t trace_id) {
  double backoff = policy_.initial_backoff_seconds;
  for (int i = 1; i < retry_number; ++i) backoff *= 2.0;
  if (backoff > policy_.max_backoff_seconds)
    backoff = policy_.max_backoff_seconds;
  // LCG jitter in [0.5, 1.0): desynchronizes clients hammering a shedding
  // server, deterministically given the seed.
  jitter_state_ = jitter_state_ * 6364136223846793005ull + 1442695040888963407ull;
  const double unit =
      static_cast<double>(jitter_state_ >> 11) / 9007199254740992.0;  // 2^53
  const double sleep_s = backoff * (0.5 + 0.5 * unit);
  if (sleep_s > 0.0) {
    obs::Span span(tracer_, "client.backoff", trace_id);
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
  }
}

Status RetryingClient::ensure_connected() {
  if (client_.has_value()) return Status::Ok();
  if (ports_.empty())
    return InvalidArgumentError("RetryingClient: no endpoints configured");
  Status last = UnavailableError("RetryingClient: no endpoint reachable");
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    StatusOr<Client> c =
        Client::connect(ports_[endpoint_], policy_.timeout_seconds);
    if (c.ok()) {
      client_.emplace(std::move(*c));
      return Status::Ok();
    }
    last = c.status();
    advance_endpoint();
  }
  return last;
}

StatusOr<Response> RetryingClient::roundtrip(const Request& req) {
  const std::uint64_t id = next_id_++;
  // One trace id per *logical* request: every attempt (and the server-side
  // spans it triggers, on whichever replica) shares it, so the merged trace
  // shows the retry/failover story end to end. 0 (untraced) without a
  // tracer, keeping the wire frames byte-identical to the untraced path.
  const std::uint64_t trace_id =
      tracer_ != nullptr ? derive_trace_id(policy_.jitter_seed, id) : 0;
  const std::uint64_t t0_us = now_us();
  const std::size_t endpoint0 = endpoint_;
  // Window accounting happens at every return path via this helper.
  const auto note = [this, t0_us, endpoint0](bool error, int attempts) {
    const std::uint64_t now = this->now_us();
    window_.add(obs::WinCounter::kRequests, now);
    if (error) window_.add(obs::WinCounter::kErrors, now);
    if (attempts > 1)
      window_.add(obs::WinCounter::kRetries, now,
                  static_cast<std::uint64_t>(attempts - 1));
    if (endpoint_ != endpoint0) window_.add(obs::WinCounter::kFailovers, now);
    window_.record_latency(now, now - t0_us);
  };
  Status last = UnavailableError("RetryingClient: no attempt made");
  int attempts_made = 0;
  for (int attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    attempts_made = attempt;
    if (attempt > 1) {
      if (metrics_ != nullptr)
        metrics_->add(obs::Counter::kServeClientRetries);
      backoff_sleep(attempt - 1, trace_id);
    }
    obs::Span attempt_span(tracer_, "client.attempt", trace_id);
    if (Status st = ensure_connected(); !st.ok()) {
      last = st;
      continue;
    }
    // The wire parent_span_id slot carries the attempt ordinal — enough to
    // tell attempts apart server-side without a span-id allocator (the
    // merged-trace assertion matches on trace_id only).
    StatusOr<Response> r = client_->roundtrip_with_id(
        id, req, trace_id, static_cast<std::uint64_t>(attempt));
    if (!r.ok()) {
      last = r.status();
      // Transport fault: the stream can no longer be trusted (a timed-out
      // response may still be in flight; a dropped connection is gone).
      // Reconnect — preferring the next replica — and retry the same id.
      client_.reset();
      advance_endpoint();
      if (!retryable_status(last.code())) break;
      continue;
    }
    if (r->code != StatusCode::kOk && retryable_status(r->code)) {
      // The server answered, but with a transient failure: it shed us
      // (RESOURCE_EXHAUSTED — load, connection budget, or memory), our
      // request arrived corrupted (DATA_LOSS from the frame CRC), or the
      // per-request deadline tripped. The connection may already be closed
      // (connection shed), so drop it either way and prefer another replica
      // after backing off.
      last = r->to_status();
      client_.reset();
      advance_endpoint();
      continue;
    }
    note(r->code != StatusCode::kOk, attempt);
    return r;  // OK, or a non-retryable server-side answer for the caller
  }
  if (metrics_ != nullptr) metrics_->add(obs::Counter::kServeClientGiveUps);
  note(/*error=*/true, attempts_made);
  return last;
}

std::string RetryingClient::client_stats_json() const {
  StatsDocInputs in;
  in.tool = "udbscan_client";
  in.has_telemetry = true;
  const std::uint64_t now = now_us();
  TelemetryReport& t = in.telemetry;
  t.uptime_us = now;
  if (metrics_ != nullptr) in.snap = metrics_->snapshot();
  t.requests_total = next_id_ - 1;  // logical requests issued
  t.errors_total = in.snap.counter(obs::Counter::kServeClientGiveUps);
  const std::uint64_t spans[kTelemetryWindows] = {1, 10, 60};
  for (std::size_t i = 0; i < kTelemetryWindows; ++i)
    t.windows[i] = telemetry_window_from(window_.snapshot(now, spans[i]));
  return stats_document_json(in);
}

}  // namespace udb::serve

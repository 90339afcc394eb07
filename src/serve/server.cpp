#include "serve/server.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/log.hpp"
#include "obs/report.hpp"
#include "serve/telemetry.hpp"

namespace udb::serve {

namespace {

const char* span_name(MsgType t) {
  switch (t) {
    case MsgType::kPing: return "serve.ping";
    case MsgType::kClassify: return "serve.classify";
    case MsgType::kNeighbors: return "serve.neighbors";
    case MsgType::kPointInfo: return "serve.point_info";
    case MsgType::kStats: return "serve.stats";
    case MsgType::kModelInfo: return "serve.model_info";
    case MsgType::kTelemetry: return "serve.telemetry";
  }
  return "serve.request";
}

}  // namespace

QueryServer::QueryServer(std::shared_ptr<const ClusterModel> model,
                         ServerConfig cfg)
    : served_(std::move(model)),
      cfg_(cfg),
      epoch_(std::chrono::steady_clock::now()) {
  if (cfg_.pool_threads > 1)
    pool_ = std::make_unique<ThreadPool>(cfg_.pool_threads);
  // Request-buffer accounting only: no deadline, and check() is never called
  // on this guard, so its exhaustion latch is irrelevant — try_charge keeps
  // enforcing the budget for the life of the server.
  buffer_guard_.arm(RunLimits{0.0, cfg_.memory_budget_bytes});
}

QueryServer::~QueryServer() { stop(); }

Status QueryServer::start() {
  if (running_) return InvalidArgumentError("QueryServer::start: already running");
  StatusOr<Socket> listener = listen_loopback(cfg_.port, port_);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  stopping_ = false;
  running_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
  obs::LogLine(obs::LogLevel::kInfo, "serve", "listening")
      .kv("port", static_cast<std::uint64_t>(port_))
      .kv("points", model()->size());
  return Status::Ok();
}

void QueryServer::stop() {
  if (!running_) return;
  stopping_ = true;
  // Unblock accept(), then every connection worker sitting in recv().
  listener_.shutdown_both();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  // Workers unregister their fd and exit at the next frame boundary; the
  // thread list only grows under conn_mu_, and the accept loop is already
  // dead, so this join sweep sees every worker.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads)
    if (t.joinable()) t.join();
  listener_.close();
  running_ = false;
}

void QueryServer::refresh(std::shared_ptr<const ClusterModel> m) {
  served_.refresh(std::move(m), &metrics_);
}

std::uint64_t QueryServer::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void QueryServer::accept_loop() {
  obs::set_trace_pid(cfg_.trace_pid);
  double backoff_s = 0.010;
  while (!stopping_) {
    obs::Span accept_span(cfg_.tracer, "serve.accept");
    StatusOr<Socket> conn = accept_connection(listener_);
    accept_span.end();
    if (!conn.ok()) {
      if (stopping_) break;
      if (conn.status().code() == StatusCode::kResourceExhausted) {
        // fd / buffer exhaustion (EMFILE, ENFILE, ENOBUFS) is transient — it
        // clears when a connection closes. Back off exponentially instead of
        // spinning on accept() or killing the server. The sleep *duration*
        // is recorded too (serve_accept_backoff_us), so a snapshot shows not
        // just how often accept degraded but for how long.
        metrics_.add(obs::Counter::kServeAcceptRetries);
        metrics_.observe(obs::Hist::kServeAcceptBackoffUs,
                         static_cast<std::uint64_t>(backoff_s * 1e6));
        obs::LogLine(obs::LogLevel::kWarn, "serve", "accept_backoff")
            .kv("status", conn.status().to_string())
            .kv("sleep_ms", backoff_s * 1e3);
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
        backoff_s = std::min(backoff_s * 2.0, 1.0);
        continue;
      }
      obs::LogLine(obs::LogLevel::kWarn, "serve", "accept_failed")
          .kv("status", conn.status().to_string());
      break;
    }
    backoff_s = 0.010;

    bool shed = false;
    {
      std::lock_guard<std::mutex> lk(conn_mu_);
      if (stopping_) break;  // raced with stop(): drop the connection
      shed = cfg_.max_connections > 0 &&
             conn_fds_.size() >= cfg_.max_connections;
      if (!shed) {
        conn_fds_.insert(conn->fd());
        conn_threads_.emplace_back([this, c = std::move(*conn)]() mutable {
          serve_connection(std::move(c));
        });
      }
    }
    if (shed) {
      // Connection budget full: one RESOURCE_EXHAUSTED shed frame (request
      // id 0 — the peer has not sent anything yet), then close. The retrying
      // client backs off or fails over on it.
      metrics_.add(obs::Counter::kServeShedConnections);
      (void)write_frame(
          *conn, frame_v2(0, encode_response(error_response(
                                 MsgType::kPing,
                                 ResourceExhaustedError(
                                     "server connection budget full — back "
                                     "off or try another replica")))));
    }
  }
}

void QueryServer::serve_connection(Socket conn) {
  obs::set_trace_pid(cfg_.trace_pid);
  const int fd = conn.fd();
  if (cfg_.idle_timeout_seconds > 0.0)
    set_socket_timeouts(conn, cfg_.idle_timeout_seconds);
  // Wire-path sliding-window accounting: one call per terminal outcome, so
  // the rolling qps/error/shed rates count each request exactly once (the
  // cumulative counters are bumped at the individual sites as before).
  const auto note = [this](bool error, bool shed, std::uint64_t latency_us) {
    const std::uint64_t now = now_us();
    window_.add(obs::WinCounter::kRequests, now);
    if (error) window_.add(obs::WinCounter::kErrors, now);
    if (shed) window_.add(obs::WinCounter::kShed, now);
    window_.record_latency(now, latency_us);
  };
  std::uint64_t last_frame_us = now_us();
  for (;;) {
    StatusOr<std::vector<std::uint8_t>> frame = read_frame(conn);
    if (!frame.ok()) {
      // Clean close (or stop()) ends the loop silently.
      if (stopping_) break;
      const StatusCode code = frame.status().code();
      if (code == StatusCode::kDeadlineExceeded) {
        // Idle peer: reclaim the worker thread; a live client reconnects.
        // The recorded wait is the gap since the last completed frame (or
        // since accept), i.e. how long this worker sat pinned by a silent
        // peer before the timeout fired.
        metrics_.add(obs::Counter::kServeIdleDisconnects);
        metrics_.observe(obs::Hist::kServeIdleWaitUs,
                         now_us() - last_frame_us);
        obs::LogLine(obs::LogLevel::kInfo, "serve", "idle_disconnect")
            .kv("idle_timeout_s", cfg_.idle_timeout_seconds);
      } else if (code == StatusCode::kDataLoss) {
        // A malformed frame (oversized prefix, truncation mid-frame) gets
        // one error answer, then the connection is dropped — the stream
        // offset is unrecoverable.
        metrics_.add(obs::Counter::kServeRequests);
        metrics_.add(obs::Counter::kServeErrors);
        metrics_.add(obs::Counter::kServeCorruptFrames);
        note(/*error=*/true, /*shed=*/false, 0);
        (void)write_frame(conn, frame_v2(0, encode_response(error_response(
                                               MsgType::kPing,
                                               frame.status()))));
      }
      break;
    }

    FrameV2 env;
    if (Status st = parse_frame_v2(std::span<const std::uint8_t>(*frame), env);
        !st.ok()) {
      // Unknown marker, truncated envelope or CRC mismatch: the length
      // prefix was intact, so the stream stays in sync — answer (request id
      // 0: the envelope's id is exactly what the CRC failed to vouch for)
      // and keep the connection.
      metrics_.add(obs::Counter::kServeRequests);
      metrics_.add(obs::Counter::kServeErrors);
      metrics_.add(obs::Counter::kServeCorruptFrames);
      note(/*error=*/true, /*shed=*/false, 0);
      if (!write_frame(conn, frame_v2(0, encode_response(error_response(
                                             MsgType::kPing, st))))
               .ok())
        break;
      last_frame_us = now_us();
      continue;
    }

    // Admission: global in-flight budget and request-buffer byte budget,
    // checked before any model work. A shed request costs the server one
    // error frame; the client treats RESOURCE_EXHAUSTED as retryable after
    // backoff (or fails over to another replica).
    obs::Span admission_span(cfg_.tracer, "serve.req.admission",
                             env.trace_id);
    const std::size_t inflight =
        inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
    ScopedCharge charge;
    Status admit = Status::Ok();
    if (cfg_.max_inflight > 0 && inflight > cfg_.max_inflight)
      admit = ResourceExhaustedError(
          "server overloaded: in-flight budget of " +
          std::to_string(cfg_.max_inflight) +
          " requests exhausted — back off and retry");
    if (admit.ok() && cfg_.memory_budget_bytes > 0)
      admit = charge.acquire(&buffer_guard_, frame->size(),
                             "serve request buffer");
    admission_span.end();

    Request req;
    Response resp;
    bool shed = false, error = false;
    const auto t0 = std::chrono::steady_clock::now();
    if (!admit.ok()) {
      metrics_.add(obs::Counter::kServeRequests);
      metrics_.add(obs::Counter::kServeErrors);
      metrics_.add(obs::Counter::kServeShedLoad);
      shed = error = true;
      resp = error_response(MsgType::kPing, admit);
    } else {
      obs::Span decode_span(cfg_.tracer, "serve.req.decode", env.trace_id);
      Status st = decode_request(env.payload, req);
      decode_span.end();
      if (!st.ok()) {
        metrics_.add(obs::Counter::kServeRequests);
        metrics_.add(obs::Counter::kServeErrors);
        // Garbage in the body is answerable (the frame boundary is intact):
        // report and keep the connection.
        error = true;
        resp = error_response(MsgType::kPing, st);
      } else {
        resp = handle(req, env.trace_id);
        error = resp.code != StatusCode::kOk;
      }
    }
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    metrics_.observe(obs::Hist::kServeRequestUs,
                     static_cast<std::uint64_t>(us));
    note(error, shed, static_cast<std::uint64_t>(us));
    // A shed request gives its in-flight slot back at once; an admitted one
    // holds it until its response is flushed, so the budget also bounds the
    // responses waiting on slow readers.
    if (shed) inflight_.fetch_sub(1, std::memory_order_relaxed);
    charge.reset();

    obs::Span encode_span(cfg_.tracer, "serve.req.encode", env.trace_id);
    const std::vector<std::uint8_t> out =
        frame_v2(env.request_id, encode_response(resp));
    encode_span.end();
    obs::Span flush_span(cfg_.tracer, "serve.req.flush", env.trace_id);
    const bool wrote = write_frame(conn, out).ok();
    flush_span.end();
    if (!shed) inflight_.fetch_sub(1, std::memory_order_relaxed);
    if (!wrote) break;
    last_frame_us = now_us();
  }
  std::lock_guard<std::mutex> lk(conn_mu_);
  conn_fds_.erase(fd);
}

Response QueryServer::handle(const Request& req, std::uint64_t trace_id) {
  obs::Span span(cfg_.tracer, span_name(req.type), trace_id);
  metrics_.add(obs::Counter::kServeRequests);
  const std::shared_ptr<const ClusterModel> model = served_.get();

  Response resp;
  resp.type = req.type;
  Status st = Status::Ok();
  switch (req.type) {
    case MsgType::kPing:
      break;
    case MsgType::kClassify:
      return handle_classify(req, model);
    case MsgType::kNeighbors: {
      if (req.dim != model->dim()) {
        st = InvalidArgumentError(
            "neighbors: query dim " + std::to_string(req.dim) +
            " does not match model dim " + std::to_string(model->dim()));
        break;
      }
      auto r = model->neighbors(req.coords, req.radius, &metrics_);
      if (!r.ok()) {
        st = r.status();
        break;
      }
      resp.neighbors.reserve(r->size());
      for (const auto& [id, d2] : *r) resp.neighbors.emplace_back(id, d2);
      break;
    }
    case MsgType::kPointInfo: {
      auto r = model->point_info(req.point_id, &metrics_);
      if (!r.ok()) {
        st = r.status();
        break;
      }
      resp.point = *r;
      break;
    }
    case MsgType::kStats:
      resp.json = stats_json();
      break;
    case MsgType::kModelInfo:
      resp.model.n = model->size();
      resp.model.dim = static_cast<std::uint32_t>(model->dim());
      resp.model.eps = model->params().eps;
      resp.model.min_pts = model->params().min_pts;
      resp.model.num_clusters = model->num_clusters();
      break;
    case MsgType::kTelemetry: {
      resp.telemetry_format = req.telemetry_format;
      const TelemetryReport report = telemetry_report();
      switch (req.telemetry_format) {
        case TelemetryFormat::kBinary:
          resp.telemetry = report;
          break;
        case TelemetryFormat::kJson:
          resp.json = telemetry_json(report);
          break;
        case TelemetryFormat::kPrometheus:
          resp.json = telemetry_prometheus(report, metrics_.snapshot());
          break;
      }
      break;
    }
  }
  if (!st.ok()) {
    metrics_.add(obs::Counter::kServeErrors);
    return error_response(req.type, st);
  }
  return resp;
}

Response QueryServer::handle_classify(
    const Request& req, const std::shared_ptr<const ClusterModel>& model) {
  if (req.dim != model->dim()) {
    metrics_.add(obs::Counter::kServeErrors);
    return error_response(
        req.type,
        InvalidArgumentError("classify: query dim " + std::to_string(req.dim) +
                             " does not match model dim " +
                             std::to_string(model->dim())));
  }
  const std::size_t count = req.coords.size() / model->dim();
  metrics_.observe(obs::Hist::kServeBatchSize, count);

  RunGuard guard(RunLimits{cfg_.request_deadline_seconds, 0});
  RunGuard* guard_ptr =
      cfg_.request_deadline_seconds > 0.0 ? &guard : nullptr;

  StatusOr<std::vector<Classify>> r = InternalError("unreached");
  if (pool_ != nullptr && count >= kParallelBatchThreshold) {
    // The pool runs one job at a time; concurrent connections take turns.
    std::lock_guard<std::mutex> lk(pool_mu_);
    r = model->classify_batch(req.coords, count, &metrics_, pool_.get(),
                              guard_ptr);
  } else {
    r = model->classify_batch(req.coords, count, &metrics_, nullptr,
                              guard_ptr);
  }
  if (!r.ok()) {
    metrics_.add(obs::Counter::kServeErrors);
    if (r.status().code() == StatusCode::kDeadlineExceeded)
      metrics_.add(obs::Counter::kServeDeadlineExceeded);
    return error_response(req.type, r.status());
  }
  Response resp;
  resp.type = req.type;
  resp.classify = std::move(*r);
  return resp;
}

TelemetryReport QueryServer::telemetry_report() const {
  const obs::MetricsSnapshot snap = metrics_.snapshot();
  TelemetryReport t;
  const std::uint64_t now = now_us();
  t.uptime_us = now;
  t.inflight = inflight_.load(std::memory_order_relaxed);
  t.requests_total = snap.counter(obs::Counter::kServeRequests);
  t.errors_total = snap.counter(obs::Counter::kServeErrors);
  t.shed_load_total = snap.counter(obs::Counter::kServeShedLoad);
  t.shed_connections_total =
      snap.counter(obs::Counter::kServeShedConnections);
  t.corrupt_frames_total = snap.counter(obs::Counter::kServeCorruptFrames);
  t.idle_disconnects_total =
      snap.counter(obs::Counter::kServeIdleDisconnects);
  t.classify_points = snap.counter(obs::Counter::kServeClassifyPoints);
  t.classify_performed =
      snap.counter(obs::Counter::kServeClassifyPerformed);
  t.classify_avoided_exact =
      snap.counter(obs::Counter::kServeClassifyAvoidedExact);
  const std::uint64_t spans[kTelemetryWindows] = {1, 10, 60};
  for (std::size_t i = 0; i < kTelemetryWindows; ++i)
    t.windows[i] = telemetry_window_from(window_.snapshot(now, spans[i]));
  return t;
}

std::string QueryServer::stats_json() const {
  const std::shared_ptr<const ClusterModel> model = served_.get();
  StatsDocInputs in;
  in.tool = "udbscan_serve";
  in.has_model = true;
  in.model.n = model->size();
  in.model.dim = static_cast<std::uint32_t>(model->dim());
  in.model.eps = model->params().eps;
  in.model.min_pts = model->params().min_pts;
  in.model.num_clusters = model->num_clusters();
  in.has_serve_ledger = true;
  in.has_telemetry = true;
  in.telemetry = telemetry_report();
  in.snap = metrics_.snapshot();
  return stats_document_json(in);
}

}  // namespace udb::serve

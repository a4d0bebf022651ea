#include "service/query_service.h"

#include "common/macros.h"
#include "exec/driver.h"
#include "ops/operator.h"
#include "storage/object_store.h"

namespace photon {
namespace service {
namespace {

/// Process-wide: session ids name spill prefixes in the (shared) default
/// object store, so they must be unique across every QueryService alive
/// in the process, not just within one.
std::atomic<int64_t> g_next_session_id{1};

AdmissionOptions MakeAdmissionOptions(const ServiceOptions& o) {
  AdmissionOptions a;
  a.max_running = o.max_concurrent_queries;
  a.memory_budget_bytes = o.admission_budget_bytes >= 0
                              ? o.admission_budget_bytes
                              : o.memory_limit_bytes;
  return a;
}

}  // namespace

const char* SessionStateName(SessionState s) {
  switch (s) {
    case SessionState::kQueued:
      return "queued";
    case SessionState::kRunning:
      return "running";
    case SessionState::kSucceeded:
      return "succeeded";
    case SessionState::kFailed:
      return "failed";
    case SessionState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// QuerySession
// ---------------------------------------------------------------------------

QuerySession::QuerySession(int64_t id, plan::PlanPtr plan, WriteFn write_fn,
                           SessionOptions options)
    : id_(id),
      plan_(std::move(plan)),
      write_fn_(std::move(write_fn)),
      options_(std::move(options)),
      spill_prefix_("service/q" + std::to_string(id)) {}

SessionState QuerySession::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

Status QuerySession::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    return state_ != SessionState::kQueued &&
           state_ != SessionState::kRunning;
  });
  return status_;
}

const Table& QuerySession::table() const {
  std::lock_guard<std::mutex> lock(mu_);
  PHOTON_CHECK(state_ == SessionState::kSucceeded);
  return table_;
}

void QuerySession::Finish(SessionState state, Status status, Table table) {
  // Only the control thread touches these, and it is done with them.
  plan_.reset();
  write_fn_ = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    state_ = state;
    status_ = std::move(status);
    table_ = std::move(table);
  }
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// QueryService
// ---------------------------------------------------------------------------

QueryService::QueryService(ServiceOptions options)
    : options_(options),
      scheduler_(options.worker_threads),
      io_pool_(options.io_threads >= 0 ? options.io_threads
                                       : std::max(2, options.worker_threads)),
      memory_manager_(options.memory_limit_bytes),
      admission_(MakeAdmissionOptions(options)) {
  if (options_.default_reserve_timeout_ms >= 0) {
    memory_manager_.set_reserve_timeout_ms(options_.default_reserve_timeout_ms);
  }
}

QueryService::~QueryService() { Drain(); }

std::shared_ptr<QuerySession> QueryService::Submit(plan::PlanPtr plan,
                                                   SessionOptions options) {
  PHOTON_CHECK(plan != nullptr);
  return Launch(std::move(plan), WriteFn(), std::move(options));
}

std::shared_ptr<QuerySession> QueryService::SubmitWrite(
    WriteFn fn, SessionOptions options) {
  PHOTON_CHECK(fn != nullptr);
  return Launch(nullptr, std::move(fn), std::move(options));
}

std::shared_ptr<QuerySession> QueryService::Launch(plan::PlanPtr plan,
                                                   WriteFn write_fn,
                                                   SessionOptions options) {
  int64_t id = g_next_session_id.fetch_add(1, std::memory_order_relaxed);
  // Bare new: the constructor is private to QuerySession's friends.
  std::shared_ptr<QuerySession> session(new QuerySession(
      id, std::move(plan), std::move(write_fn), std::move(options)));
  // Deadline starts at submission so queue time counts against it: a
  // deadline is a promise to the caller, and the caller doesn't care
  // whether the time went to queueing or running.
  if (session->options_.deadline_ms >= 0) {
    session->control_.SetDeadlineAfterMs(session->options_.deadline_ms);
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::thread> exited;
  {
    // Held until the handle is in running_, which the thread's last step
    // looks up under the same lock.
    std::lock_guard<std::mutex> lock(mu_);
    exited.swap(finished_);
    running_.emplace(id, std::thread([this, id, session]() mutable {
      RunSession(session);
      session.reset();
      std::lock_guard<std::mutex> lock(mu_);
      auto self = running_.find(id);
      finished_.push_back(std::move(self->second));
      running_.erase(self);
      if (running_.empty()) drained_cv_.notify_all();
    }));
  }
  for (std::thread& t : exited) t.join();
  return session;
}

void QueryService::RunSession(const std::shared_ptr<QuerySession>& session) {
  // ---- Admission (kQueued) -------------------------------------------
  Status admitted = admission_.Admit(session->options_.memory_bytes,
                                     session->options_.priority,
                                     &session->control_);
  if (!admitted.ok()) {
    bool is_cancel = admitted.IsCancelled() || admitted.IsDeadlineExceeded();
    (is_cancel ? cancelled_ : failed_).fetch_add(1, std::memory_order_relaxed);
    session->Finish(
        is_cancel ? SessionState::kCancelled : SessionState::kFailed,
        std::move(admitted), Table(Schema()));
    return;
  }

  // ---- Execution (kRunning) ------------------------------------------
  {
    std::lock_guard<std::mutex> lock(session->mu_);
    session->state_ = SessionState::kRunning;
  }
  int64_t slot = scheduler_.RegisterQuery();
  {
    exec::Driver driver(&scheduler_, slot, &io_pool_);
    ExecContext ctx;
    ctx.memory_manager = &memory_manager_;
    ctx.spill_prefix = session->spill_prefix_;
    ctx.control = &session->control_;
    ctx.reserve_timeout_ms = session->options_.reserve_timeout_ms >= 0
                                 ? session->options_.reserve_timeout_ms
                                 : options_.default_reserve_timeout_ms;
    ctx.optimizer = session->options_.optimizer;
    Result<Table> out =
        session->write_fn_
            ? session->write_fn_(&driver, ctx)
            : driver.Run(session->plan_, ctx, nullptr, &session->profile_);
    session->profile_.query = session->options_.name.empty()
                                  ? "q" + std::to_string(session->id_)
                                  : session->options_.name;

    // ---- Teardown: runs on every exit path, success or not ------------
    // By here the driver has joined all its task futures and unwound its
    // operator chains (destructors released reservations, shuffle guards
    // deleted blocks); what's left is this session's spill artifacts.
    ObjectStore::Default().DeletePrefix(session->spill_prefix_ + "/");

    if (out.ok()) {
      succeeded_.fetch_add(1, std::memory_order_relaxed);
      session->Finish(SessionState::kSucceeded, Status::OK(),
                      std::move(*out));
    } else {
      Status st = out.status();
      bool is_cancel = st.IsCancelled() || st.IsDeadlineExceeded();
      (is_cancel ? cancelled_ : failed_)
          .fetch_add(1, std::memory_order_relaxed);
      session->Finish(
          is_cancel ? SessionState::kCancelled : SessionState::kFailed,
          std::move(st), Table(Schema()));
    }
  }
  scheduler_.UnregisterQuery(slot);
  admission_.Release(session->options_.memory_bytes);
}

void QueryService::Drain() {
  std::vector<std::thread> exited;
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained_cv_.wait(lock, [this] { return running_.empty(); });
    exited.swap(finished_);
  }
  for (std::thread& t : exited) t.join();
}

QueryService::Stats QueryService::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.succeeded = succeeded_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.tasks_executed = scheduler_.tasks_executed();
  return s;
}

}  // namespace service
}  // namespace photon

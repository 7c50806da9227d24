#pragma once
// QueryContext: the fault-tolerance envelope of one query execution.
//
// A production archive serving millions of users cannot let a single query
// run unbounded.  Every budget-aware execution path (the four progressive
// raster executors, the three SPROC processors, Onion top-K, the Fig. 5
// workflow) threads a QueryContext carrying
//
//   * a *cost budget* in elementary work units (model term operations),
//   * a *wall-clock deadline* (checked with amortized frequency so the hot
//     path pays an add + compare, not a clock read, per unit), and
//   * a *cooperative cancellation flag* owned by the caller.
//
// Executors call charge(n) before doing n units of work; the first failed
// charge latches a stop reason and every later charge fails too, so inner
// loops unwind naturally.  Executors then return whatever top-K prefix they
// accumulated, tagged with the ResultStatus and a *sound upper bound* on the
// score of anything they did not examine — a partial answer the caller can
// still reason about instead of an exception or an unbounded stall.
//
// Concurrency: one context is shared by every worker of a tile-parallel
// execution (engine/parallel_exec.hpp), so the mutable execution state —
// spent counter, check tick, bad-point tally, latched stop reason — lives in
// relaxed atomics:
//
//   * charge() accumulates with fetch_add; concurrent charges never lose
//     work, so the budget is enforced exactly (the first add that lands past
//     the budget fails, and every later charge observes the latch).
//   * the stop reason latches via compare-exchange: exactly one cause wins
//     and is never overwritten by a concurrently detected one.
//   * relaxed ordering is sufficient because the context only *steers*
//     control flow; result data produced by workers is published by the
//     thread pool's join, never through the context.
//
// Charge granularity: the shared spent counter is one cache line that every
// worker writes and stopped() reads, so executors must not charge it per
// pixel when nothing can stop the query.  The rule (exec::scan_rect_full,
// the batch executor's bulk_charged members): when unbounded() holds, charge
// a whole rectangle (a tile or row band) in one call — the spent() total is
// the same; otherwise (budget, deadline or cancel flag anywhere up the
// parent chain) charge per pixel, so the trip point, and with it the
// certified prefix, stays exact.
//
// Configuration (with_*) and reset() are NOT thread-safe: configure before
// sharing, reset only after all workers have joined.
//
// The class is fully header-only so leaf libraries (sproc, index) can use it
// without linking mmir_core; only the cold deadline/cancel path touches the
// clock, and it is kept out of charge()'s inlined fast path.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/result_status.hpp"

namespace mmir {

/// Budget / deadline / cancellation envelope for one query (or one batch of
/// queries: spent work accumulates across calls that share a context).
/// Safe to share across the workers of one parallel execution; see the
/// header comment for the exact guarantees.
class QueryContext {
 public:
  /// Default: unbounded — charge() never fails, queries behave exactly like
  /// the budget-unaware code paths.
  QueryContext() = default;

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  // ------------------------------------------------------------- configuration

  /// Caps total charged work at `ops` elementary operations.
  QueryContext& with_op_budget(std::uint64_t ops) noexcept {
    budget_ = ops;
    return *this;
  }

  /// Stops the query once `deadline` passes (checked every check-interval
  /// charged units).
  QueryContext& with_deadline(std::chrono::steady_clock::time_point deadline) noexcept {
    deadline_ = deadline;
    has_deadline_ = true;
    return *this;
  }

  /// Convenience: deadline = now + d.
  QueryContext& with_timeout(std::chrono::nanoseconds d) noexcept {
    return with_deadline(std::chrono::steady_clock::now() + d);
  }

  /// Binds a caller-owned cancellation flag; the query stops soon after the
  /// flag becomes true.  The flag must outlive the context.
  QueryContext& with_cancel_flag(const std::atomic<bool>* flag) noexcept {
    cancel_ = flag;
    return *this;
  }

  /// Chains this context under `parent`: every charge is forwarded to the
  /// parent first, so the *global* budget/deadline/cancel envelope stays
  /// exactly enforced across any number of children, and a parent stop
  /// latches the parent's reason here so inner loops unwind with the global
  /// verdict.  The child may add its own (tighter) deadline and cancel flag
  /// — the per-shard sub-deadline and hedge-cancellation seams of the shard
  /// fault domains (engine/fault_domain.hpp).  The parent must outlive the
  /// child; work charged by a child that is later discarded (a failed shard
  /// attempt) stays charged to the parent — the work was really done.
  QueryContext& with_parent(QueryContext* parent) noexcept {
    parent_ = parent;
    return *this;
  }

  /// Binds the query's trace span: executors hang their stage spans off it
  /// (obs::Span::child_of(ctx.span(), ...)), and the first charge failure
  /// notes the latched stop reason on it.  The span must outlive the
  /// execution; null (the default) disables tracing.  Not thread-safe:
  /// configure before sharing, like every with_*.
  QueryContext& with_span(const obs::Span* span) noexcept {
    span_ = span;
    return *this;
  }

  /// The query's trace span; nullptr when untraced.
  [[nodiscard]] const obs::Span* span() const noexcept { return span_; }

  /// How many charged units elapse between deadline / cancellation checks
  /// (default 1024).  Lower values react faster and cost more clock reads.
  /// With W workers sharing the context the *aggregate* check cadence is the
  /// same; each individual worker may go up to W intervals between checks.
  QueryContext& with_check_interval(std::uint64_t units) {
    MMIR_EXPECTS(units > 0);
    check_interval_ = units;
    return *this;
  }

  /// True when nothing can ever stop this context — no budget, deadline,
  /// cancel flag, or (transitively) limited parent.  charge() then cannot
  /// fail, so bulk executors may charge coarse-grained aggregates (e.g. a
  /// whole tile at once) without changing trip behavior or the final
  /// spent() total.  Read-only; safe against concurrent charges.
  [[nodiscard]] bool unbounded() const noexcept {
    return budget_ == std::numeric_limits<std::uint64_t>::max() && !has_deadline_ &&
           cancel_ == nullptr && (parent_ == nullptr || parent_->unbounded());
  }

  // ------------------------------------------------------------------ execution

  /// Charges `units` of work.  Returns true when execution may proceed;
  /// false once the budget is exhausted, the deadline passed, or the caller
  /// cancelled.  The first failure latches: all later charges fail too.
  /// Safe to call concurrently from multiple workers (see header comment).
  [[nodiscard]] bool charge(std::uint64_t units = 1) noexcept {
    if (stop_.load(std::memory_order_relaxed) != ResultStatus::kComplete) return false;
    if (parent_ != nullptr && !parent_->charge(units)) {
      latch(parent_->stop_reason());
      return false;
    }
    const std::uint64_t spent = spent_.fetch_add(units, std::memory_order_relaxed) + units;
    if (spent > budget_) {
      latch(ResultStatus::kTruncatedBudget);
      return false;
    }
    if (has_deadline_ || cancel_ != nullptr) {
      const std::uint64_t tick = tick_.fetch_add(units, std::memory_order_relaxed) + units;
      if (tick >= check_interval_) return check_slow();
    }
    return true;
  }

  /// Forces an immediate budget / deadline / cancellation check without
  /// charging work (used at coarse-grained checkpoints, e.g. between
  /// workflow iterations).  Latches like charge().
  [[nodiscard]] bool expired() noexcept {
    if (stop_.load(std::memory_order_relaxed) != ResultStatus::kComplete) return true;
    if (parent_ != nullptr && parent_->expired()) {
      latch(parent_->stop_reason());
      return true;
    }
    if (spent_.load(std::memory_order_relaxed) > budget_) {
      latch(ResultStatus::kTruncatedBudget);
      return true;
    }
    if (cancel_ != nullptr || has_deadline_) return !check_slow();
    return false;
  }

  /// True once a charge has failed (or expired() observed a stop condition).
  [[nodiscard]] bool stopped() const noexcept {
    return stop_.load(std::memory_order_relaxed) != ResultStatus::kComplete;
  }

  /// Why the query stopped; kComplete while still running.
  [[nodiscard]] ResultStatus stop_reason() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

  /// Records `n` poisoned (non-finite) data points skipped during evaluation.
  /// Forwarded to the parent (when chained) so the global tally is complete.
  void note_bad_points(std::uint64_t n = 1) noexcept {
    if (parent_ != nullptr) parent_->note_bad_points(n);
    bad_points_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bad_points() const noexcept {
    return bad_points_.load(std::memory_order_relaxed);
  }

  /// Total charged work.  Concurrent failing charges may leave this slightly
  /// above budget(); remaining() clamps accordingly.
  [[nodiscard]] std::uint64_t spent() const noexcept {
    return spent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t budget() const noexcept { return budget_; }
  [[nodiscard]] std::uint64_t remaining() const noexcept {
    const std::uint64_t spent = spent_.load(std::memory_order_relaxed);
    return spent >= budget_ ? 0 : budget_ - spent;
  }

  /// Clears spent work, the latched stop reason and the bad-point tally,
  /// keeping the configuration — for reusing one context across queries.
  /// Not thread-safe: call only when no worker is executing.
  void reset() noexcept {
    spent_.store(0, std::memory_order_relaxed);
    tick_.store(0, std::memory_order_relaxed);
    bad_points_.store(0, std::memory_order_relaxed);
    stop_.store(ResultStatus::kComplete, std::memory_order_relaxed);
  }

 private:
  /// Latches the first stop reason; concurrent detections of a different
  /// cause lose the race and keep the original reason.  The winning latch is
  /// recorded on the trace span (exactly once, from the winning thread).
  void latch(ResultStatus reason) noexcept {
    ResultStatus expected = ResultStatus::kComplete;
    if (stop_.compare_exchange_strong(expected, reason, std::memory_order_relaxed,
                                      std::memory_order_relaxed) &&
        span_ != nullptr) {
      note_stop(reason);
    }
  }

  /// Cold: records the winning stop reason on the trace span.  Kept out of
  /// line so latch() — and through it charge()'s fail branch — stays small
  /// enough for charge() to inline into per-pixel loops; inlining the span
  /// note (string building + a mutex) there measurably slows the executors.
  [[gnu::noinline]] void note_stop(ResultStatus reason) const noexcept {
    span_->note("stop_reason", to_string(reason));
  }

  /// Cold path: consults the cancellation flag and the clock.  Marked
  /// noinline so the hot charge() stays small enough to inline.
  [[gnu::noinline]] bool check_slow() noexcept {
    tick_.store(0, std::memory_order_relaxed);
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      latch(ResultStatus::kCancelled);
      return false;
    }
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      latch(ResultStatus::kTruncatedDeadline);
      return false;
    }
    return true;
  }

  // Configuration: written before workers start, read-only afterwards.
  std::uint64_t budget_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t check_interval_ = 1024;
  std::chrono::steady_clock::time_point deadline_{};
  const std::atomic<bool>* cancel_ = nullptr;
  QueryContext* parent_ = nullptr;
  bool has_deadline_ = false;

  // Execution state: shared by workers, relaxed atomics (see header comment).
  std::atomic<std::uint64_t> spent_{0};
  std::atomic<std::uint64_t> tick_{0};
  std::atomic<std::uint64_t> bad_points_{0};
  std::atomic<ResultStatus> stop_{ResultStatus::kComplete};

  // Tracing (cold: touched only at configuration and on the first failed
  // charge).  Kept after the hot atomics so adding it does not shift their
  // cache-line placement.
  const obs::Span* span_ = nullptr;
};

}  // namespace mmir

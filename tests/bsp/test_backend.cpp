// The Backend API (bsp/backend.hpp): every backend must enforce the same
// superstep rules (labels, nesting, ranges, sparse active sets, destination
// range, cluster containment) with the same exceptions, the counting and
// recording backends must produce bit-identical traces on the same program,
// and the record/replay pair must round-trip exactly.
#include "bsp/backend.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "../algorithms/degree_check.hpp"
#include "algorithms/primitives.hpp"
#include "algorithms/scan.hpp"
#include "audit/backend.hpp"
#include "bsp/machine.hpp"
#include "core/workloads.hpp"

namespace nobl {
namespace {

void expect_traces_identical(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.log_v(), b.log_v());
  ASSERT_EQ(a.supersteps(), b.supersteps());
  for (std::size_t s = 0; s < a.supersteps(); ++s) {
    EXPECT_EQ(a.steps()[s].label, b.steps()[s].label) << "superstep " << s;
    EXPECT_EQ(a.steps()[s].degree, b.steps()[s].degree) << "superstep " << s;
    EXPECT_EQ(a.steps()[s].messages, b.steps()[s].messages)
        << "superstep " << s;
  }
}

/// A mixed program: real traffic, dummies, self-messages, a range superstep
/// and a sparse superstep — every superstep flavour the backends must drive.
template <typename Backend>
void mixed_program(Backend& bk) {
  const std::uint64_t v = bk.v();
  bk.superstep(0, [v](auto& vp) {
    vp.send((vp.id() * 5 + 3) % v, static_cast<int>(vp.id()));
    vp.send(vp.id(), -1);  // self-message: counts a message, no degree
    if (vp.id() + 1 < v) vp.send_dummy(vp.id() + 1, vp.id() % 3);
  });
  bk.superstep_range(0, v / 4, (3 * v) / 4, [v](auto& vp) {
    vp.send(v - 1 - vp.id(), 7);
  });
  std::vector<std::uint64_t> active;
  for (std::uint64_t r = 0; r < v; r += 3) active.push_back(r);
  const unsigned label = bk.log_v() >= 2 ? 1u : 0u;
  bk.superstep_sparse(label, active, [](auto& vp) {
    vp.send(vp.id() ^ 1, 1);
    vp.send_dummy(vp.id() ^ 1, 2);
    vp.send_dummy(vp.id() ^ 1, 0);  // zero-count dummy: no effect
  });
}

TEST(CostBackend, TraceMatchesSimulatorOnMixedProgram) {
  for (const std::uint64_t v : {4u, 16u, 64u}) {
    SimulateBackend<int> simulate(v);
    mixed_program(simulate);
    CostBackend cost(v);
    mixed_program(cost);
    expect_traces_identical(simulate.trace(), cost.trace());
  }
}

/// The superstep rules of M(v) (Section 2), each a program that one
/// backend at a time interprets.
enum class Rule {
  kLabelAtBound,
  kLabelAtBoundOnM1,
  kLabelZeroOnM1,
  kNested,
  kRangePastV,
  kRangeReversed,
  kRangeEdges,
  kSparseUnsorted,
  kSparseDuplicate,
  kSparsePastV,
  kRecoverAfterRejectedSparse,
  kSendPastV,
  kDummyPastV,
  kSendBreach,
  kDummyBreach,
  kZeroDummyPastV,
};

template <typename Backend>
void drive(Rule rule, Backend& bk) {
  const auto idle = [](auto&) {};
  switch (rule) {
    case Rule::kLabelAtBound:
    case Rule::kLabelAtBoundOnM1:
      bk.superstep(bk.log_v() < 1 ? 1 : bk.log_v(), idle);
      break;
    case Rule::kLabelZeroOnM1:
      bk.superstep(0, [](auto& vp) { vp.send(vp.id(), 1); });
      break;
    case Rule::kNested:
      bk.superstep(0, [&bk, idle](auto&) { bk.superstep(0, idle); });
      break;
    case Rule::kRangePastV:
      bk.superstep_range(0, 2, 8, [](auto& vp) { vp.send(vp.id() ^ 1, 1); });
      break;
    case Rule::kRangeReversed:
      bk.superstep_range(0, 3, 2, idle);
      break;
    case Rule::kRangeEdges:
      bk.superstep_range(0, 4, 4, idle);
      bk.superstep_range(0, 0, 4, [](auto& vp) { vp.send(vp.id() ^ 1, 1); });
      break;
    case Rule::kSparseUnsorted:
      bk.superstep_sparse(0, std::vector<std::uint64_t>{2, 1}, idle);
      break;
    case Rule::kSparseDuplicate:
      bk.superstep_sparse(0, std::vector<std::uint64_t>{1, 1}, idle);
      break;
    case Rule::kSparsePastV:
      bk.superstep_sparse(0, std::vector<std::uint64_t>{0, 4}, idle);
      break;
    case Rule::kRecoverAfterRejectedSparse:
      try {
        bk.superstep_sparse(0, std::vector<std::uint64_t>{2, 1}, idle);
      } catch (const std::invalid_argument&) {
        bk.superstep(0, [](auto& vp) { vp.send(vp.id() ^ 1, 1); });
        break;
      }
      throw std::logic_error("unsorted sparse set accepted");
    case Rule::kSendPastV:
      bk.superstep(0, [](auto& vp) {
        if (vp.id() == 0) vp.send(4, 1);
      });
      break;
    case Rule::kDummyPastV:
      bk.superstep(0, [](auto& vp) {
        if (vp.id() == 0) vp.send_dummy(4, 1);
      });
      break;
    case Rule::kSendBreach:
      bk.superstep(1, [](auto& vp) {
        if (vp.id() == 0) vp.send(2, 1);
      });
      break;
    case Rule::kDummyBreach:
      bk.superstep(1, [](auto& vp) {
        if (vp.id() == 0) vp.send_dummy(2, 3);
      });
      break;
    case Rule::kZeroDummyPastV:
      bk.superstep(1, [](auto& vp) { vp.send_dummy(99, 0); });
      break;
  }
}

// One rule x backend table: every backend enforces every superstep rule
// with the same exception type and message, behind its own prefix, before
// any illegal message is counted. A range past v once overran the
// simulator's degree counters.
TEST(Backends, EverySuperstepRuleHoldsOnEveryBackend) {
  struct RuleCase {
    const char* name;
    Rule rule;
    std::uint64_t v;
    const std::type_info* type;  ///< null: the program must run cleanly
    const char* message;         ///< what() after "<prefix>: "
  };
  const std::type_info* invalid = &typeid(std::invalid_argument);
  const std::type_info* range = &typeid(std::out_of_range);
  const std::type_info* logic = &typeid(std::logic_error);
  const std::type_info* breach = &typeid(ClusterViolation);
  const char* label_msg = "superstep label out of range";
  const char* range_msg = "superstep range needs first <= last <= v";
  const char* sparse_msg =
      "sparse active set must be strictly increasing VP ids";
  const char* dst_msg = "destination VP out of range";
  const char* breach_msg =
      "message leaves the sender's 1-cluster (src=0, dst=2)";
  const std::vector<RuleCase> rules{
      {"label == label_bound", Rule::kLabelAtBound, 4, invalid, label_msg},
      {"M(1) label 1", Rule::kLabelAtBoundOnM1, 1, invalid, label_msg},
      {"M(1) label 0", Rule::kLabelZeroOnM1, 1, nullptr, ""},
      {"nested superstep", Rule::kNested, 4, logic, "nested superstep"},
      {"range past v", Rule::kRangePastV, 4, invalid, range_msg},
      {"reversed range", Rule::kRangeReversed, 4, invalid, range_msg},
      {"empty and full ranges", Rule::kRangeEdges, 4, nullptr, ""},
      {"sparse unsorted", Rule::kSparseUnsorted, 4, invalid, sparse_msg},
      {"sparse duplicate", Rule::kSparseDuplicate, 4, invalid, sparse_msg},
      {"sparse id >= v", Rule::kSparsePastV, 4, invalid, sparse_msg},
      {"legal superstep after a rejected sparse one",
       Rule::kRecoverAfterRejectedSparse, 4, nullptr, ""},
      {"send dst >= v", Rule::kSendPastV, 4, range, dst_msg},
      {"send_dummy dst >= v", Rule::kDummyPastV, 4, range, dst_msg},
      {"send breach", Rule::kSendBreach, 4, breach, breach_msg},
      {"send_dummy breach", Rule::kDummyBreach, 4, breach, breach_msg},
      {"count-0 dummy dst >= v", Rule::kZeroDummyPastV, 4, nullptr, ""},
  };

  struct BackendCase {
    const char* name;
    const char* prefix;
    std::function<void(std::uint64_t, Rule)> run;
  };
  const std::vector<BackendCase> backends{
      {"Machine seq", "Machine",
       [](std::uint64_t v, Rule rule) {
         Machine<int> bk(v);
         drive(rule, bk);
       }},
      {"Machine par:2", "Machine",
       [](std::uint64_t v, Rule rule) {
         Machine<int> bk(v, ExecutionPolicy::parallel(2));
         drive(rule, bk);
       }},
      {"Cost", "CostBackend",
       [](std::uint64_t v, Rule rule) {
         CostBackend bk(v);
         drive(rule, bk);
       }},
      {"Record", "CostBackend",
       [](std::uint64_t v, Rule rule) {
         RecordBackend bk(v);
         drive(rule, bk);
       }},
      {"Audit", "AuditBackend",
       [](std::uint64_t v, Rule rule) {
         audit::AuditBackend bk(v);
         drive(rule, bk);
       }},
      {"Distributed over fork", "DistributedBackend",
       [](std::uint64_t v, Rule rule) {
         RunOptions options;
         options.backend = BackendKind::kDistributed;
         options.dist.transport = dist::Transport::kFork;
         (void)run_for_trace(v, options,
                             [rule](auto& bk) { drive(rule, bk); });
       }},
  };

  for (const RuleCase& rc : rules) {
    for (const BackendCase& bc : backends) {
      SCOPED_TRACE(std::string(rc.name) + " under " + bc.name);
      try {
        bc.run(rc.v, rc.rule);
        EXPECT_EQ(rc.type, nullptr) << "accepted an illegal program";
      } catch (const std::exception& e) {
        ASSERT_NE(rc.type, nullptr) << "rejected a legal program: "
                                    << e.what();
        EXPECT_TRUE(typeid(e) == *rc.type) << "threw " << typeid(e).name();
        EXPECT_EQ(std::string(e.what()),
                  std::string(bc.prefix) + ": " + rc.message);
      }
    }
  }
}

TEST(CostBackend, DummyBurstsAndSelfMessages) {
  CostBackend bk(4);
  bk.superstep(0, [](auto& vp) {
    if (vp.id() == 0) {
      vp.send_dummy(2, 5);  // one event, five messages, degree 5 at the top
      vp.send(0, 1);        // self: message only
    }
  });
  const Trace& trace = bk.trace();
  ASSERT_EQ(trace.supersteps(), 1u);
  EXPECT_EQ(trace.steps()[0].messages, 6u);
  EXPECT_EQ(trace.steps()[0].degree[2], 5u);
  EXPECT_EQ(trace.steps()[0].degree[0], 0u);
}

TEST(RecordBackend, CapturesTheScheduleInExecutionOrder) {
  RecordBackend bk(4);
  bk.superstep(0, [](auto& vp) {
    if (vp.id() == 1) {
      vp.send(3, 10);
      vp.send(0, 11);
    }
    if (vp.id() == 2) vp.send_dummy(0, 4);
  });
  bk.superstep(1, [](auto& vp) { vp.send(vp.id() ^ 1, 1); });

  const Schedule& schedule = bk.schedule();
  EXPECT_EQ(schedule.log_v, 2u);
  ASSERT_EQ(schedule.steps.size(), 2u);
  EXPECT_EQ(schedule.steps[0].label, 0u);
  ASSERT_EQ(schedule.steps[0].size(), 3u);
  EXPECT_EQ(schedule.steps[0][0], (ScheduleSend{1, 3, 1, false}));
  EXPECT_EQ(schedule.steps[0][1], (ScheduleSend{1, 0, 1, false}));
  EXPECT_EQ(schedule.steps[0][2], (ScheduleSend{2, 0, 4, true}));
  EXPECT_EQ(schedule.steps[1].label, 1u);
  EXPECT_EQ(schedule.steps[1].size(), 4u);
  EXPECT_EQ(schedule.total_sends(), 7u);
  // The columnar block exposes the same rows through its columns.
  EXPECT_EQ(schedule.steps[0].src(), (std::vector<std::uint64_t>{1, 1, 2}));
  EXPECT_EQ(schedule.steps[0].dst(), (std::vector<std::uint64_t>{3, 0, 0}));
  EXPECT_EQ(schedule.steps[0].count(), (std::vector<std::uint64_t>{1, 1, 4}));
  EXPECT_EQ(schedule.steps[0].dummy_words(),
            (std::vector<std::uint64_t>{0b100}));
}

TEST(RecordBackend, ReplayReproducesTheTraceBitForBit) {
  for (const std::uint64_t v : {4u, 16u, 64u}) {
    RecordBackend record(v);
    mixed_program(record);
    // The replayed trace equals both the recording backend's own counting
    // and the simulator's.
    expect_traces_identical(record.trace(), record.schedule().replay_trace());
    SimulateBackend<int> simulate(v);
    mixed_program(simulate);
    expect_traces_identical(simulate.trace(),
                            record.schedule().replay_trace());
  }
}

TEST(RecordBackend, ScheduleFeedsTheReferenceOracle) {
  // A recorded kernel schedule drops into the ReferenceDegreeAccumulator
  // conformance helper — the generic replacement for hand-written mirrors.
  const auto addends = workloads::random_addends(16, 16);
  RecordBackend record(16);
  (void)scan_program(record, addends);
  testing_detail::expect_trace_matches_reference(
      record.trace(), testing_detail::schedule_to_expected(record.schedule()));
}

TEST(Backend, RunForTraceIsBackendInvariant) {
  const auto addends = workloads::random_addends(32, 99);
  auto program = [&](auto& bk) { (void)scan_program(bk, addends); };
  const Trace simulate = run_for_trace(32, RunOptions{}, program);
  const Trace cost = run_for_trace(32, RunOptions{BackendKind::kCost}, program);
  const Trace record =
      run_for_trace(32, RunOptions{BackendKind::kRecord}, program);
  expect_traces_identical(simulate, cost);
  expect_traces_identical(simulate, record);
}

TEST(Backend, ProgramsReturnHostMirroredOutputsUnderEveryBackend) {
  const auto addends = workloads::random_addends(16, 5);
  SimulateBackend<std::uint64_t> simulate(16);
  CostBackend cost(16);
  EXPECT_EQ(scan_program(simulate, addends), scan_program(cost, addends));
  SimulateBackend<std::uint64_t> sim2(16);
  CostBackend cost2(16);
  EXPECT_EQ(reduce_program(sim2, addends), reduce_program(cost2, addends));
}

TEST(Backend, KindNamesRoundTrip) {
  for (const BackendKind kind : all_backend_kinds()) {
    EXPECT_EQ(backend_from_string(to_string(kind)), kind);
  }
  EXPECT_EQ(backend_from_string("sim"), BackendKind::kSimulate);
  EXPECT_THROW((void)backend_from_string("gpu"), std::invalid_argument);
  EXPECT_EQ(all_backend_kinds().size(), 5u);
}

TEST(Backend, RunOptionsConvertImplicitly) {
  // Historical runner(n, policy) call sites pass an ExecutionPolicy.
  const RunOptions from_policy = ExecutionPolicy::parallel(3);
  EXPECT_EQ(from_policy.backend, BackendKind::kSimulate);
  EXPECT_EQ(from_policy.policy.num_threads, 3u);
  const RunOptions from_kind = BackendKind::kCost;
  EXPECT_EQ(from_kind.backend, BackendKind::kCost);
  EXPECT_FALSE(from_kind.policy.is_parallel());
}

TEST(Schedule, ReplayRejectsOutOfRangeLabels) {
  Schedule schedule;
  schedule.log_v = 2;
  schedule.steps.emplace_back(5);
  EXPECT_THROW((void)schedule.replay_trace(), std::invalid_argument);
}

}  // namespace
}  // namespace nobl

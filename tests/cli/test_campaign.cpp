// Campaign spec parsing (with position info), builtin campaigns, the
// campaign runner's JSON contract, and the check/threshold gate CI relies on.
#include "cli/campaign.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/wiseness.hpp"
#include "util/rng.hpp"

namespace nobl {
namespace {

void expect_parse_error(const std::string& spec, const std::string& fragment) {
  try {
    (void)parse_campaign_spec(spec);
    FAIL() << "expected invalid_argument for:\n" << spec;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "message: " << e.what() << "\nexpected fragment: " << fragment;
  }
}

TEST(CampaignSpec, ParsesFullSpec) {
  const CampaignSpec spec = parse_campaign_spec(
      "# nightly sweep\n"
      "name = nightly\n"
      "algorithms = matmul:64:4096, fft, sort:256\n"
      "engines = seq, par:2\n"
      "sigmas = 0, 1, 4.5\n"
      "max_fold = 64\n");
  EXPECT_EQ(spec.name, "nightly");
  ASSERT_EQ(spec.sweeps.size(), 3u);
  EXPECT_EQ(spec.sweeps[0].algorithm, "matmul");
  EXPECT_EQ(spec.sweeps[0].sizes, (std::vector<std::uint64_t>{64, 4096}));
  // Bare name = the registry's smoke sizes.
  EXPECT_EQ(spec.sweeps[1].sizes,
            AlgoRegistry::instance().at("fft").smoke_sizes);
  ASSERT_EQ(spec.engines.size(), 2u);
  EXPECT_FALSE(spec.engines[0].is_parallel());
  EXPECT_EQ(spec.engines[1].num_threads, 2u);
  EXPECT_EQ(spec.sigmas, (std::vector<double>{0, 1, 4.5}));
  EXPECT_EQ(spec.max_fold, 64u);
}

TEST(CampaignSpec, UnknownAlgorithmNamesPosition) {
  expect_parse_error("algorithms = matmul, warp-sort\n", "line 1");
  expect_parse_error("algorithms = matmul, warp-sort\n", "column 22");
  expect_parse_error("algorithms = matmul, warp-sort\n",
                     "unknown algorithm \"warp-sort\"");
}

TEST(CampaignSpec, EmptySweepRejected) {
  expect_parse_error("name = empty\n", "no algorithms (empty sweep)");
  expect_parse_error("algorithms = \n", "empty value");
  expect_parse_error("algorithms = ,\n", "empty algorithm entry");
}

TEST(CampaignSpec, BadSigmaGridNamesPosition) {
  expect_parse_error("algorithms = fft\nsigmas = 0, banana\n", "line 2");
  expect_parse_error("algorithms = fft\nsigmas = 0, banana\n",
                     "bad sigma grid entry \"banana\"");
  expect_parse_error("algorithms = fft\nsigmas = -1\n", "finite and >= 0");
  expect_parse_error("algorithms = fft\nsigmas = 1, , 2\n",
                     "empty sigma grid entry");
}

TEST(CampaignSpec, SizeRuleEnforcedAtParseTime) {
  // 48 is not m^2 for a power-of-two m. The error must be actionable: the
  // offending n, the size rule, AND the nearest admissible size.
  expect_parse_error("algorithms = matmul:48\n", "matmul: n = 48 is inadmissible");
  expect_parse_error("algorithms = matmul:48\n", "n = m^2 elements");
  expect_parse_error("algorithms = matmul:48\n", "nearest admissible n = 64");
  expect_parse_error("algorithms = matmul:48\n", "line 1");
}

TEST(CampaignSpec, BadEngineAndKeyAndFold) {
  expect_parse_error("algorithms = fft\nengines = gpu\n",
                     "unknown engine \"gpu\"");
  expect_parse_error("algorithms = fft\nspeed = fast\n", "unknown key");
  expect_parse_error("algorithms = fft\nmax_fold = 3\n", "power of two");
  expect_parse_error("algorithms = fft\nmax_fold = banana\n",
                     "unsigned integer");
}

TEST(CampaignSpecFuzz, MalformedSweepLinesCarryPositions) {
  expect_parse_error("algorithms = sort:\n", "empty size");
  expect_parse_error("algorithms = sort::64\n", "empty size");
  expect_parse_error("algorithms = sort:64:\n", "empty size");
  expect_parse_error("algorithms = scan:banana\n", "unsigned integer");
  // One past UINT64_MAX: must be a parse error, not silent wraparound.
  expect_parse_error("algorithms = scan:18446744073709551616\n",
                     "unsigned integer");
  expect_parse_error("algorithms = scan:0\n", "out of range");
  // Legal powers of two, but beyond what the simulator should try to
  // allocate: the parser, not the allocator, must reject them (with line
  // 1). The cap is per-kernel: stencil2 builds M(n²) and stencil1 an n x n
  // grid, so their ceilings sit far below the linear kernels'.
  expect_parse_error("algorithms = scan:134217728\n", "out of range");
  expect_parse_error("algorithms = scan:134217728\n", "line 1");
  expect_parse_error("algorithms = stencil2:65536\n", "out of range");
  expect_parse_error("algorithms = stencil1:65536\n", "out of range");
  expect_parse_error("algorithms = samplesort:1048576\n", "out of range");
  expect_parse_error("algorithms = transpose:32\n",
                     "transpose: n = 32 is inadmissible");
  expect_parse_error("algorithms = transpose:32\n",
                     "nearest admissible n = 16");
  expect_parse_error("algorithms = samplesort:96\n",
                     "samplesort: n = 96 is inadmissible");
  expect_parse_error("algorithms = samplesort:96\n",
                     "nearest admissible n = 64");
}

TEST(CampaignSpecFuzz, EngineEdgeCases) {
  expect_parse_error("algorithms = fft\nengines = par:0\n", "out of range");
  expect_parse_error("algorithms = fft\nengines = par:9999\n", "out of range");
  expect_parse_error("algorithms = fft\nengines = par:x\n",
                     "unsigned integer");
  expect_parse_error("algorithms = fft\nengines = seq,\n", "empty engine");
}

TEST(CampaignSpecFuzz, RandomMutationsNeverCrash) {
  // Truncations, byte flips, insertions and chunk duplications of a valid
  // spec must either parse or throw std::invalid_argument with a position —
  // never crash, hang, or surface any other exception type.
  const std::string base =
      "name = fuzz\n"
      "algorithms = scan:64, samplesort, transpose:64\n"
      "engines = seq, par:2\n"
      "sigmas = 0, 1.5\n"
      "max_fold = 16\n";
  Xoshiro256 rng(20260727);
  for (int iter = 0; iter < 400; ++iter) {
    std::string text = base;
    const unsigned edits = 1 + static_cast<unsigned>(rng.below(4));
    for (unsigned e = 0; e < edits && !text.empty(); ++e) {
      const std::uint64_t kind = rng.below(4);
      const std::size_t at = rng.below(text.size());
      if (kind == 0) {
        text = text.substr(0, at);  // truncate
      } else if (kind == 1) {
        text[at] = static_cast<char>(rng.below(256));  // flip
      } else if (kind == 2) {
        text.insert(at, 1, static_cast<char>(rng.below(256)));  // insert
      } else {
        text += text.substr(at);  // duplicate tail
      }
    }
    try {
      const CampaignSpec spec = parse_campaign_spec(text);
      EXPECT_FALSE(spec.sweeps.empty());  // success implies a usable spec
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
          << "iter " << iter << ": " << e.what();
    } catch (...) {
      FAIL() << "iter " << iter << ": non-invalid_argument exception for:\n"
             << text;
    }
  }
}

TEST(Campaigns, BuiltinsResolve) {
  for (const std::string& name : builtin_campaign_names()) {
    const CampaignSpec spec = builtin_campaign(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.sweeps.empty());
    for (const auto& sweep : spec.sweeps) {
      const AlgoEntry& entry = AlgoRegistry::instance().at(sweep.algorithm);
      EXPECT_FALSE(sweep.sizes.empty()) << name << "/" << sweep.algorithm;
      for (const auto n : sweep.sizes) {
        EXPECT_TRUE(entry.admits(n))
            << name << "/" << sweep.algorithm << " n=" << n;
      }
    }
  }
  EXPECT_THROW((void)builtin_campaign("nope"), std::invalid_argument);
  // The acceptance bar for ci-smoke: >= 4 algorithms x {seq, par}.
  const CampaignSpec smoke = builtin_campaign("ci-smoke");
  EXPECT_GE(smoke.sweeps.size(), 4u);
  ASSERT_EQ(smoke.engines.size(), 2u);
  EXPECT_TRUE(smoke.engines[1].is_parallel());
}

CampaignResult tiny_campaign_result() {
  CampaignSpec spec;
  spec.name = "tiny";
  spec.sweeps = {{"fft", {64}}, {"broadcast", {64}}};
  spec.engines = {ExecutionPolicy::sequential(), ExecutionPolicy::parallel(2)};
  return run_campaign(spec);
}

TEST(CampaignRun, ProducesValidSchemaAndEngineParity) {
  const CampaignResult result = tiny_campaign_result();
  ASSERT_EQ(result.runs.size(), 4u);  // 2 algorithms x 2 engines

  std::ostringstream os;
  write_campaign_json(os, result);
  const JsonValue doc = JsonValue::parse(os.str());
  EXPECT_EQ(doc.at("schema_version").as_number(), kResultSchemaVersion);
  EXPECT_EQ(doc.at("campaign").as_string(), "tiny");
  EXPECT_TRUE(validate_campaign_json(doc).empty());

  // Engines must agree cell by cell (bit-identical engine guarantee).
  const RunResult& seq = result.runs[0];
  const RunResult& par = result.runs[2];
  ASSERT_EQ(seq.algorithm, par.algorithm);
  ASSERT_EQ(seq.cells.size(), par.cells.size());
  for (std::size_t i = 0; i < seq.cells.size(); ++i) {
    EXPECT_EQ(seq.cells[i].h, par.cells[i].h);
  }
}

TEST(CampaignRun, ValidatorCatchesEngineDivergence) {
  const CampaignResult result = tiny_campaign_result();
  std::ostringstream os;
  write_campaign_json(os, result);
  std::string text = os.str();
  // Corrupt one measured H of the parallel fft run: bump the first "h" value
  // in the second half of the document.
  const std::size_t mid = text.size() / 2;
  const std::size_t h_pos = text.find("\"h\": ", mid);
  ASSERT_NE(h_pos, std::string::npos);
  text.insert(h_pos + 5, "9");
  const std::vector<std::string> violations =
      validate_campaign_json(JsonValue::parse(text));
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("bit-identical"), std::string::npos)
      << violations[0];
}

TEST(CampaignRun, MaxFoldAndExplicitSigmasRespected) {
  CampaignSpec spec;
  spec.name = "capped";
  spec.sweeps = {{"fft", {256}}};
  spec.max_fold = 16;
  spec.sigmas = {0.0, 2.0};
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.runs.size(), 1u);
  const RunResult& run = result.runs[0];
  ASSERT_EQ(run.folds.size(), 4u);  // p = 2, 4, 8, 16
  EXPECT_EQ(run.folds.back().p, 16u);
  ASSERT_EQ(run.cells.size(), 8u);  // 4 folds x 2 sigmas
  EXPECT_EQ(run.cells[1].sigma, 2.0);
  EXPECT_EQ(run.certification.p, 16u);
}

// The visitor is how certify and trace export reach a cell's trace now that
// the runner drops it: each cell is visited once, in result order, with the
// trace its runner produces, and the Lemma 3.1 column computed from the
// visited traces matches the one computed from fresh runs.
TEST(CampaignRun, VisitorSeesEachCellsTraceOnceInResultOrder) {
  const CampaignSpec spec = builtin_campaign("golden");
  const std::vector<CampaignCell> cells = campaign_cells(spec);
  ASSERT_EQ(cells.size(), 8u);
  const auto folding_holds = [](const Trace& trace) {
    bool holds = true;
    for (unsigned log_p = 1; log_p <= trace.log_v(); ++log_p) {
      holds = folding_inequality_holds(trace, log_p) && holds;
    }
    return holds;
  };
  std::size_t visits = 0;
  std::vector<bool> visited_verdicts;
  const CampaignResult result = run_campaign(
      spec, nullptr, [&](const RunResult& run, const Trace& trace) {
        ASSERT_LT(visits, cells.size());
        const CampaignCell& cell = cells[visits++];
        EXPECT_EQ(run.algorithm, cell.entry->name);
        EXPECT_EQ(run.n, cell.n);
        EXPECT_EQ(run.backend, to_string(cell.backend));
        EXPECT_EQ(run.engine, to_string(cell.policy));
        const Trace fresh =
            cell.entry->runner(cell.n, RunOptions{cell.policy, cell.backend});
        ASSERT_EQ(trace.log_v(), fresh.log_v());
        ASSERT_EQ(trace.supersteps(), fresh.supersteps());
        for (std::size_t s = 0; s < trace.supersteps(); ++s) {
          EXPECT_EQ(trace.steps()[s].label, fresh.steps()[s].label);
          EXPECT_EQ(trace.steps()[s].messages, fresh.steps()[s].messages);
          EXPECT_EQ(trace.steps()[s].degree, fresh.steps()[s].degree);
        }
        EXPECT_EQ(folding_holds(trace), folding_holds(fresh)) << run.algorithm;
        visited_verdicts.push_back(folding_holds(trace));
      });
  EXPECT_EQ(visits, cells.size());
  ASSERT_EQ(result.runs.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(result.runs[i].algorithm, cells[i].entry->name);
    EXPECT_EQ(result.runs[i].n, cells[i].n);
    // The streaming runner keeps no trace in its results.
    EXPECT_EQ(result.runs[i].trace.supersteps(), 0u);
    EXPECT_TRUE(visited_verdicts[i]) << cells[i].entry->name;
  }
  // Without a visitor, the compatibility overload keeps every trace.
  const CampaignResult kept = run_campaign(spec);
  ASSERT_EQ(kept.runs.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(kept.runs[i].trace.supersteps(), result.runs[i].supersteps);
    EXPECT_GT(kept.runs[i].trace.supersteps(), 0u);
  }
}

JsonValue to_doc(const CampaignResult& result) {
  std::ostringstream os;
  write_campaign_json(os, result);
  return JsonValue::parse(os.str());
}

TEST(Thresholds, PassAndFail) {
  const JsonValue results = to_doc(tiny_campaign_result());

  const JsonValue lenient = JsonValue::parse(
      R"({"schema_version": 1, "algorithms": {
            "fft": {"max_ratio_lb": 1e9, "min_alpha": 0.0}}})");
  EXPECT_TRUE(check_thresholds(results, lenient).empty());

  const JsonValue strict = JsonValue::parse(
      R"({"schema_version": 1, "algorithms": {
            "fft": {"max_ratio_lb": 0.001}}})");
  const std::vector<std::string> violations =
      check_thresholds(results, strict);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("max_ratio_lb"), std::string::npos);

  const JsonValue unknown = JsonValue::parse(
      R"({"schema_version": 1, "algorithms": {"warp": {"max_ratio_lb": 1}}})");
  const std::vector<std::string> missing = check_thresholds(results, unknown);
  ASSERT_FALSE(missing.empty());
  EXPECT_NE(missing[0].find("no runs"), std::string::npos);
}

TEST(Thresholds, SchemaVersionGate) {
  const JsonValue wrong = JsonValue::parse(
      R"({"schema_version": 999, "campaign": "x", "runs": []})");
  const std::vector<std::string> violations = validate_campaign_json(wrong);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("schema_version"), std::string::npos);
}

TEST(CampaignSpec, BackendsKeyParsed) {
  const CampaignSpec spec = parse_campaign_spec(
      "algorithms = fft\n"
      "backends = simulate, cost, record\n");
  ASSERT_EQ(spec.backends.size(), 3u);
  EXPECT_EQ(spec.backends[0], BackendKind::kSimulate);
  EXPECT_EQ(spec.backends[1], BackendKind::kCost);
  EXPECT_EQ(spec.backends[2], BackendKind::kRecord);
  // Default: simulate only.
  EXPECT_EQ(parse_campaign_spec("algorithms = fft\n").backends,
            (std::vector<BackendKind>{BackendKind::kSimulate}));
  expect_parse_error("algorithms = fft\nbackends = gpu\n",
                     "unknown backend \"gpu\"");
  expect_parse_error("algorithms = fft\nbackends = gpu\n", "line 2");
  expect_parse_error("algorithms = fft\nbackends = cost,\n",
                     "empty backend entry");
}

TEST(CampaignRun, BackendMatrixProducesIdenticalCells) {
  CampaignSpec spec;
  spec.name = "backends";
  spec.sweeps = {{"samplesort", {64}}};
  spec.engines = {ExecutionPolicy::sequential(), ExecutionPolicy::parallel(2)};
  spec.backends = {BackendKind::kSimulate, BackendKind::kCost,
                   BackendKind::kRecord};
  const CampaignResult result = run_campaign(spec);
  // simulate runs once per engine; cost/record collapse the engine matrix
  // (their driver is always sequential): 2 + 1 + 1 runs.
  ASSERT_EQ(result.runs.size(), 4u);
  EXPECT_EQ(result.runs[0].backend, "simulate");
  EXPECT_EQ(result.runs[2].backend, "cost");
  EXPECT_EQ(result.runs[3].backend, "record");
  for (const RunResult& run : result.runs) {
    ASSERT_EQ(run.cells.size(), result.runs[0].cells.size());
    for (std::size_t i = 0; i < run.cells.size(); ++i) {
      EXPECT_EQ(run.cells[i].h, result.runs[0].cells[i].h)
          << run.backend << " cell " << i;
    }
  }
  // The document validates, including the cross-backend conformance rule.
  std::ostringstream os;
  write_campaign_json(os, result);
  const JsonValue doc = JsonValue::parse(os.str());
  EXPECT_TRUE(validate_campaign_json(doc).empty());
  EXPECT_EQ(doc.at("backends").as_array().size(), 3u);
  EXPECT_EQ(doc.at("runs").as_array()[2].at("backend").as_string(), "cost");
}

TEST(CampaignRun, ValidatorCatchesBackendDivergence) {
  CampaignSpec spec;
  spec.name = "diverge";
  spec.sweeps = {{"fft", {64}}};
  spec.backends = {BackendKind::kSimulate, BackendKind::kCost};
  const CampaignResult result = run_campaign(spec);
  std::ostringstream os;
  write_campaign_json(os, result);
  std::string text = os.str();
  // Corrupt one measured H of the cost run (the second half of the doc).
  const std::size_t h_pos = text.find("\"h\": ", text.size() / 2);
  ASSERT_NE(h_pos, std::string::npos);
  text.insert(h_pos + 5, "9");
  const std::vector<std::string> violations =
      validate_campaign_json(JsonValue::parse(text));
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("bit-identical"), std::string::npos)
      << violations[0];
  EXPECT_NE(violations[0].find("cost"), std::string::npos) << violations[0];
}

// ---- Lanes. -----------------------------------------------------------------
//
// run_campaign runs cells on campaign_detail::campaign_lanes(spec) lanes;
// whatever the count, its results, progress lines, visitor calls and
// failures are those of a serial run over campaign_cells().

CampaignSpec lane_spec(const std::string& name) {
  CampaignSpec spec = builtin_campaign(name);
  if (name == "conformance") {
    spec.backends = {BackendKind::kSimulate, BackendKind::kCost,
                     BackendKind::kRecord, BackendKind::kAnalytic};
  }
  return spec;
}

/// A serial run: every cell's registry runner, evaluated in cell order.
struct SerialRun {
  CampaignResult result;
  std::vector<Trace> traces;
  std::string progress;
};

SerialRun serial_reference(const CampaignSpec& spec) {
  SerialRun serial;
  serial.result.spec = spec;
  for (const CampaignCell& cell : campaign_cells(spec)) {
    serial.progress += "nobl: running " + cell.entry->name +
                       " n=" + std::to_string(cell.n) + " [" +
                       to_string(cell.policy) + ", " +
                       to_string(cell.backend) + "]\n";
    Trace trace =
        cell.entry->runner(cell.n, RunOptions{cell.policy, cell.backend});
    serial.result.runs.push_back(evaluate_run(spec, *cell.entry, cell.n,
                                              cell.backend, cell.policy,
                                              trace));
    serial.traces.push_back(std::move(trace));
  }
  return serial;
}

std::string json_text(const CampaignResult& result) {
  std::ostringstream os;
  write_campaign_json(os, result);
  return os.str();
}

std::string plain_text(const CampaignResult& result) {
  std::ostringstream os;
  print_campaign_text(os, result);
  return os.str();
}

bool same_trace(const Trace& a, const Trace& b) {
  if (a.log_v() != b.log_v() || a.supersteps() != b.supersteps()) {
    return false;
  }
  for (std::size_t s = 0; s < a.supersteps(); ++s) {
    const SuperstepRecord& x = a.steps()[s];
    const SuperstepRecord& y = b.steps()[s];
    if (x.label != y.label || x.degree != y.degree ||
        x.messages != y.messages) {
      return false;
    }
  }
  return true;
}

constexpr unsigned kLaneCounts[] = {1, 2, 4};

TEST(CampaignLanes, OutputIsIndependentOfTheLaneCount) {
  for (const char* name : {"golden", "ci-smoke", "conformance"}) {
    const CampaignSpec spec = lane_spec(name);
    const std::vector<CampaignCell> cells = campaign_cells(spec);
    const SerialRun serial = serial_reference(spec);
    for (const unsigned lanes : kLaneCounts) {
      SCOPED_TRACE(std::string(name) + " lanes=" + std::to_string(lanes));
      std::ostringstream progress;
      std::size_t visits = 0;
      const CampaignResult result = campaign_detail::run_campaign_on_lanes(
          spec, &progress,
          [&](const RunResult& run, const Trace& trace) {
            ASSERT_LT(visits, cells.size());
            const CampaignCell& cell = cells[visits];
            EXPECT_EQ(run.algorithm, cell.entry->name) << "cell " << visits;
            EXPECT_EQ(run.n, cell.n) << "cell " << visits;
            EXPECT_EQ(run.backend, to_string(cell.backend));
            EXPECT_EQ(run.engine, to_string(cell.policy));
            EXPECT_TRUE(same_trace(trace, serial.traces[visits]))
                << "cell " << visits;
            ++visits;
          },
          lanes);
      EXPECT_EQ(visits, cells.size());
      EXPECT_EQ(json_text(result), json_text(serial.result));
      EXPECT_EQ(plain_text(result), plain_text(serial.result));
      // Cells are announced under the dispatch lock, in cell order.
      EXPECT_EQ(progress.str(), serial.progress);
    }
  }
}

TEST(CampaignLanes, ThrowingVisitorStopsTheRun) {
  const CampaignSpec spec = builtin_campaign("golden");
  const std::size_t cells = campaign_cells(spec).size();
  for (const unsigned lanes : kLaneCounts) {
    for (const std::size_t k : {std::size_t{0}, std::size_t{3}, cells - 1}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                   " k=" + std::to_string(k));
      std::size_t visits = 0;
      try {
        (void)campaign_detail::run_campaign_on_lanes(
            spec, nullptr,
            [&](const RunResult&, const Trace&) {
              if (visits++ == k) {
                throw std::runtime_error("stop at " + std::to_string(k));
              }
            },
            lanes);
        ADD_FAILURE() << "the visitor's exception did not propagate";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "stop at " + std::to_string(k));
      }
      EXPECT_EQ(visits, k + 1);
    }
  }
}

TEST(CampaignLanes, LowestFailingCellPropagates) {
  // matmul and transpose reject n = 48 in their runners; cells after the
  // first failure are never delivered, cells before it are.
  CampaignSpec spec;
  spec.name = "failing";
  spec.sweeps = {{"fft", {64}},       {"matmul", {48}},    {"scan", {64}},
                 {"transpose", {48}}, {"broadcast", {64}}};
  for (const unsigned lanes : kLaneCounts) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    std::vector<std::string> visited;
    try {
      (void)campaign_detail::run_campaign_on_lanes(
          spec, nullptr,
          [&](const RunResult& run, const Trace&) {
            visited.push_back(run.algorithm);
          },
          lanes);
      ADD_FAILURE() << "the failing cell's exception did not propagate";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("matmul: n = 48"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(visited, std::vector<std::string>{"fft"});
  }
}

TEST(CampaignLanes, DistributedSpecsRunOnOneLane) {
  CampaignSpec spec = builtin_campaign("conformance");
  EXPECT_GE(campaign_detail::campaign_lanes(spec), 1u);
  spec.backends = {BackendKind::kCost, BackendKind::kDistributed};
  EXPECT_EQ(campaign_detail::campaign_lanes(spec), 1u);
}

TEST(CampaignText, RendersEveryRun) {
  const CampaignResult result = tiny_campaign_result();
  std::ostringstream os;
  print_campaign_text(os, result);
  const std::string text = os.str();
  EXPECT_NE(text.find("campaign: tiny"), std::string::npos);
  EXPECT_NE(text.find("fft n=64 [seq]"), std::string::npos);
  EXPECT_NE(text.find("broadcast n=64 [par:2]"), std::string::npos);
  EXPECT_NE(text.find("certification at p=64"), std::string::npos);
}

}  // namespace
}  // namespace nobl

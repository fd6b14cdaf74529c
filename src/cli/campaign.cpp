#include "cli/campaign.hpp"

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "bsp/cost.hpp"
#include "core/experiment.hpp"
#include "core/wiseness.hpp"
#include "util/bits.hpp"
#include "util/table.hpp"
#include "util/worker_pool.hpp"

namespace nobl {
namespace {

// ---------------------------------------------------------------------------
// Spec parsing. The format is line-oriented `key = value`; every error names
// its 1-based line and column so a bad campaign file is a one-glance fix.
// ---------------------------------------------------------------------------

[[noreturn]] void parse_fail(std::size_t line, std::size_t column,
                             const std::string& what) {
  throw std::invalid_argument("campaign spec, line " + std::to_string(line) +
                              ", column " + std::to_string(column) + ": " +
                              what);
}

std::string_view trim(std::string_view s, std::size_t* column_delta = nullptr) {
  std::size_t b = 0;
  while (b < s.size() && (s[b] == ' ' || s[b] == '\t')) ++b;
  std::size_t e = s.size();
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  if (column_delta != nullptr) *column_delta = b;
  return s.substr(b, e - b);
}

std::vector<std::pair<std::string_view, std::size_t>> split_list(
    std::string_view value, std::size_t value_column) {
  std::vector<std::pair<std::string_view, std::size_t>> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= value.size(); ++i) {
    if (i == value.size() || value[i] == ',') {
      std::size_t delta = 0;
      const std::string_view item =
          trim(value.substr(start, i - start), &delta);
      out.emplace_back(item, value_column + start + delta);
      start = i + 1;
    }
  }
  return out;
}

std::uint64_t parse_u64(std::string_view tok, std::size_t line,
                        std::size_t column) {
  std::uint64_t v = 0;
  const auto [end, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (ec != std::errc{} || end != tok.data() + tok.size()) {
    parse_fail(line, column, "expected an unsigned integer, got \"" +
                                 std::string(tok) + "\"");
  }
  return v;
}

double parse_sigma(std::string_view tok, std::size_t line, std::size_t column) {
  double v = 0.0;
  const auto [end, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (ec != std::errc{} || end != tok.data() + tok.size()) {
    parse_fail(line, column,
               "bad sigma grid entry \"" + std::string(tok) +
                   "\" (expected a number)");
  }
  if (!(v >= 0.0) || !std::isfinite(v)) {
    parse_fail(line, column, "bad sigma grid entry \"" + std::string(tok) +
                                 "\" (must be finite and >= 0)");
  }
  return v;
}

BackendKind parse_backend(std::string_view tok, std::size_t line,
                          std::size_t column) {
  try {
    return backend_from_string(std::string(tok));
  } catch (const std::invalid_argument& e) {
    parse_fail(line, column, e.what());
  }
}

ExecutionPolicy parse_engine(std::string_view tok, std::size_t line,
                             std::size_t column) {
  if (tok == "seq" || tok == "sequential") return ExecutionPolicy::sequential();
  if (tok == "par" || tok == "parallel") return ExecutionPolicy::parallel();
  if (tok.substr(0, 4) == "par:") {
    const std::uint64_t threads = parse_u64(tok.substr(4), line, column + 4);
    if (threads == 0 || threads > 1024) {
      parse_fail(line, column, "engine thread count out of range [1, 1024]");
    }
    return ExecutionPolicy::parallel(static_cast<unsigned>(threads));
  }
  parse_fail(line, column,
             "unknown engine \"" + std::string(tok) +
                 "\" (expected seq | par | par:N)");
}

AlgoSweep parse_sweep(std::string_view tok, std::size_t line,
                      std::size_t column) {
  AlgoSweep sweep;
  const std::size_t colon = tok.find(':');
  const std::string name(tok.substr(0, colon));
  const AlgoEntry* entry = AlgoRegistry::instance().find(name);
  if (entry == nullptr) {
    parse_fail(line, column, "unknown algorithm \"" + name + "\"");
  }
  sweep.algorithm = name;
  if (colon == std::string_view::npos) {
    sweep.sizes = entry->smoke_sizes;
    return sweep;
  }
  std::size_t pos = colon;
  while (pos != std::string_view::npos && pos < tok.size()) {
    const std::size_t next = tok.find(':', pos + 1);
    const std::string_view size_tok =
        tok.substr(pos + 1,
                   (next == std::string_view::npos ? tok.size() : next) -
                       pos - 1);
    if (size_tok.empty()) {
      parse_fail(line, column + pos + 1,
                 "empty size in sweep for \"" + name + "\"");
    }
    const std::uint64_t n = parse_u64(size_tok, line, column + pos + 1);
    // Cap sweeps at the size the simulator can realistically hold for THIS
    // kernel (super-linear footprints — M(n²) machines, n x n grids —
    // carry smaller registry caps): a legal but astronomical n must die
    // here, at the parser, with a position — not as an allocation failure
    // mid-campaign.
    if (n == 0 || n > entry->max_sweep_size) {
      parse_fail(line, column + pos + 1,
                 "size " + std::string(size_tok) + " for \"" + name +
                     "\" out of range [1, " +
                     std::to_string(entry->max_sweep_size) + "]");
    }
    if (!entry->admits(n)) {
      parse_fail(line, column + pos + 1, entry->inadmissible_message(n));
    }
    sweep.sizes.push_back(n);
    pos = next;
  }
  return sweep;
}

}  // namespace

CampaignSpec parse_campaign_spec(std::string_view text) {
  CampaignSpec spec;
  bool saw_algorithms = false;
  bool saw_engines = false;
  bool saw_backends = false;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::string_view raw = text.substr(
        start, (nl == std::string_view::npos ? text.size() : nl) - start);
    ++line_no;
    start = nl == std::string_view::npos ? text.size() + 1 : nl + 1;

    std::string_view line = raw.substr(0, raw.find('#'));  // strip comments
    std::size_t indent = 0;
    line = trim(line, &indent);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      parse_fail(line_no, indent + 1, "expected `key = value`");
    }
    const std::string_view key = trim(line.substr(0, eq));
    std::size_t value_delta = 0;
    const std::string_view value = trim(line.substr(eq + 1), &value_delta);
    const std::size_t value_column = indent + eq + 1 + value_delta + 1;
    if (value.empty()) {
      parse_fail(line_no, value_column,
                 "empty value for \"" + std::string(key) + "\"");
    }

    if (key == "name") {
      spec.name = std::string(value);
    } else if (key == "algorithms") {
      saw_algorithms = true;
      for (const auto& [tok, col] : split_list(value, value_column)) {
        if (tok.empty()) parse_fail(line_no, col, "empty algorithm entry");
        spec.sweeps.push_back(parse_sweep(tok, line_no, col));
      }
    } else if (key == "engines") {
      saw_engines = true;
      spec.engines.clear();
      for (const auto& [tok, col] : split_list(value, value_column)) {
        if (tok.empty()) parse_fail(line_no, col, "empty engine entry");
        spec.engines.push_back(parse_engine(tok, line_no, col));
      }
    } else if (key == "backends") {
      saw_backends = true;
      spec.backends.clear();
      for (const auto& [tok, col] : split_list(value, value_column)) {
        if (tok.empty()) parse_fail(line_no, col, "empty backend entry");
        spec.backends.push_back(parse_backend(tok, line_no, col));
      }
    } else if (key == "sigmas") {
      if (value != "auto") {
        for (const auto& [tok, col] : split_list(value, value_column)) {
          if (tok.empty()) parse_fail(line_no, col, "empty sigma grid entry");
          spec.sigmas.push_back(parse_sigma(tok, line_no, col));
        }
      }
    } else if (key == "max_fold") {
      const std::uint64_t fold = parse_u64(value, line_no, value_column);
      if (fold != 0 && (!is_pow2(fold) || fold < 2)) {
        parse_fail(line_no, value_column,
                   "max_fold must be 0 (no cap) or a power of two >= 2");
      }
      spec.max_fold = fold;
    } else if (key == "transport") {
      try {
        spec.dist.transport = dist::transport_from_string(std::string(value));
      } catch (const std::invalid_argument& e) {
        parse_fail(line_no, value_column, e.what());
      }
    } else if (key == "dist_workers") {
      const std::uint64_t workers = parse_u64(value, line_no, value_column);
      if (workers > 1024) {
        parse_fail(line_no, value_column,
                   "dist_workers out of range [0, 1024] (0 = auto)");
      }
      spec.dist.workers = static_cast<unsigned>(workers);
    } else {
      parse_fail(line_no, indent + 1,
                 "unknown key \"" + std::string(key) +
                     "\" (expected name | algorithms | engines | backends | "
                     "sigmas | max_fold | transport | dist_workers)");
    }
  }

  if (!saw_algorithms || spec.sweeps.empty()) {
    parse_fail(line_no, 1, "campaign has no algorithms (empty sweep)");
  }
  for (const auto& sweep : spec.sweeps) {
    if (sweep.sizes.empty()) {
      parse_fail(line_no, 1,
                 "algorithm \"" + sweep.algorithm + "\" has an empty sweep");
    }
  }
  if (saw_engines && spec.engines.empty()) {
    parse_fail(line_no, 1, "campaign has no engines");
  }
  if (saw_backends && spec.backends.empty()) {
    parse_fail(line_no, 1, "campaign has no backends");
  }
  if (spec.name.empty()) spec.name = "unnamed";
  return spec;
}

CampaignSpec builtin_campaign(const std::string& name) {
  CampaignSpec spec;
  spec.name = name;
  if (name == "ci-smoke") {
    // >= 4 algorithms x {sequential, parallel}: the CI conformance matrix.
    for (const char* algo : {"matmul", "fft", "sort", "scan", "transpose",
                             "samplesort", "broadcast"}) {
      const AlgoEntry& entry = AlgoRegistry::instance().at(algo);
      spec.sweeps.push_back({entry.name, entry.smoke_sizes});
    }
    spec.engines = {ExecutionPolicy::sequential(),
                    ExecutionPolicy::parallel(2)};
    return spec;
  }
  if (name == "golden") {
    // The fixed tiny sweep archived under tests/golden/ — keep in lockstep
    // with tests/cli/test_golden_traces.cpp.
    for (const char* algo : {"matmul", "fft", "sort", "scan", "transpose",
                             "samplesort", "stencil1", "broadcast"}) {
      spec.sweeps.push_back({algo, {64}});
    }
    spec.engines = {ExecutionPolicy::sequential()};
    return spec;
  }
  if (name == "bench") {
    for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
      spec.sweeps.push_back({entry.name, entry.bench_sizes});
    }
    spec.engines = {ExecutionPolicy::sequential()};
    return spec;
  }
  if (name == "conformance") {
    // Every registered kernel at its smallest smoke size, sequential: the
    // cross-backend bit-identity matrix. Run it with
    // `--backend simulate,cost,record,analytic,distributed` and feed the
    // document to `nobl check` — validate_campaign_json requires identical
    // H cells across every backend.
    for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
      spec.sweeps.push_back({entry.name, {entry.smoke_sizes.front()}});
    }
    spec.engines = {ExecutionPolicy::sequential()};
    return spec;
  }
  std::string known;
  for (const auto& k : builtin_campaign_names()) {
    if (!known.empty()) known += ", ";
    known += k;
  }
  throw std::invalid_argument("unknown builtin campaign \"" + name +
                              "\" (known: " + known + ")");
}

std::vector<std::string> builtin_campaign_names() {
  return {"ci-smoke", "golden", "bench", "conformance"};
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

std::vector<CampaignCell> campaign_cells(const CampaignSpec& spec) {
  std::vector<CampaignCell> cells;
  for (const BackendKind backend : spec.backends) {
    // Non-simulating backends drive bodies sequentially regardless of the
    // engine matrix: one run per (algorithm, n) suffices.
    const std::vector<ExecutionPolicy> engines =
        backend == BackendKind::kSimulate
            ? spec.engines
            : std::vector<ExecutionPolicy>{ExecutionPolicy::sequential()};
    for (const ExecutionPolicy& policy : engines) {
      for (const AlgoSweep& sweep : spec.sweeps) {
        const AlgoEntry& entry = AlgoRegistry::instance().at(sweep.algorithm);
        for (const std::uint64_t n : sweep.sizes) {
          cells.push_back({&entry, n, backend, policy});
        }
      }
    }
  }
  return cells;
}

RunResult evaluate_run(const CampaignSpec& spec, const AlgoEntry& entry,
                       std::uint64_t n, BackendKind backend,
                       const ExecutionPolicy& policy, const Trace& trace) {
  RunResult run;
  run.algorithm = entry.name;
  run.engine = to_string(policy);
  run.backend = to_string(backend);
  run.n = n;
  run.log_v = trace.log_v();
  run.supersteps = trace.supersteps();
  run.messages = trace.total_messages();

  const std::uint64_t top_fold =
      spec.max_fold == 0 ? trace.v()
                         : std::min<std::uint64_t>(spec.max_fold, trace.v());
  for (const std::uint64_t p : pow2_range(top_fold)) {
    const unsigned log_p = log2_exact(p);
    run.folds.push_back(
        {p, wiseness_alpha(trace, log_p), fullness_gamma(trace, log_p)});
    const std::vector<double> grid =
        spec.sigmas.empty() ? sigma_grid(n, p) : spec.sigmas;
    for (const double sigma : grid) {
      CellResult cell;
      cell.p = p;
      cell.sigma = sigma;
      cell.h = communication_complexity(trace, log_p, sigma);
      cell.predicted = entry.predicted(n, p, sigma);
      cell.lower_bound = entry.lower_bound(n, p, sigma);
      cell.ratio_predicted =
          cell.predicted > 0 ? cell.h / cell.predicted : 0.0;
      cell.ratio_lb = cell.lower_bound > 0 ? cell.h / cell.lower_bound : 0.0;
      run.cells.push_back(cell);
    }
  }
  if (top_fold >= 2) {
    const unsigned log_top = log2_exact(top_fold);
    const std::vector<double> grid =
        spec.sigmas.empty() ? sigma_grid(n, top_fold) : spec.sigmas;
    run.certification =
        certify_optimality(trace, n, log_top, entry.lower_bound, grid);
  }
  return run;
}

namespace {

/// One executed cell: its RunResult and, while a visitor or the
/// trace-keeping overload still needs it, its trace.
struct ExecutedCell {
  RunResult run;
  Trace trace;
};

void announce(std::ostream* progress, const CampaignCell& cell) {
  if (progress == nullptr) return;
  // One write per line, so that lines from concurrent lanes never
  // interleave.
  *progress << ("nobl: running " + cell.entry->name +
                " n=" + std::to_string(cell.n) + " [" +
                to_string(cell.policy) + ", " + to_string(cell.backend) +
                "]\n");
}

/// Run one cell and evaluate it; the trace is kept only if `keep_trace`.
ExecutedCell execute(const CampaignSpec& spec, const CampaignCell& cell,
                     bool keep_trace) {
  const AlgoEntry& entry = *cell.entry;
  RunOptions options{cell.policy, cell.backend};
  dist::Measurement measurement;
  if (cell.backend == BackendKind::kDistributed) {
    options.dist = spec.dist;
    options.measure = &measurement;
  }
  Trace trace = entry.runner(cell.n, options);
  ExecutedCell done{evaluate_run(spec, entry, cell.n, cell.backend,
                                 cell.policy, trace),
                    {}};
  if (cell.backend == BackendKind::kDistributed) {
    // Attach the measured wall-clock column next to the accounted degrees.
    // evaluate_run is deliberately trace-only, so timing rides on the
    // RunResult afterwards and never perturbs the metric surface.
    done.run.measured_ms = std::move(measurement.superstep_ms);
    done.run.measured_total_ms = measurement.total_ms;
    done.run.transport = dist::to_string(measurement.transport);
    done.run.dist_workers = measurement.workers;
  }
  if (keep_trace) done.trace = std::move(trace);
  return done;
}

/// Execute the cells on `lanes` lanes and deliver them in cell order: show
/// each trace to `visit`, then drop it (or move it into the RunResult when
/// `keep_traces`).
///
/// One lane runs the cells inline. More lanes run on a WorkerPool: each
/// lane takes the next cell in campaign_cells() order under the dispatch
/// lock, and the calling thread (pool worker 0) delivers finished cells
/// from a reorder buffer in cell order, so the result, the visitor calls
/// and a failure are those of the one-lane run. A failing cell stops
/// dispatch past it, and the lowest failing cell's exception propagates
/// after every cell before it was delivered; a throwing visitor stops
/// dispatch altogether.
CampaignResult run_cells(const CampaignSpec& spec, std::ostream* progress,
                         const CellVisitor& visit, bool keep_traces,
                         unsigned lanes) {
  const std::vector<CampaignCell> cells = campaign_cells(spec);
  lanes = static_cast<unsigned>(std::min<std::size_t>(lanes, cells.size()));
  const bool hold_traces = keep_traces || static_cast<bool>(visit);
  CampaignResult result;
  result.spec = spec;
  result.runs.reserve(cells.size());
  auto deliver = [&](ExecutedCell& done) {
    if (visit) visit(done.run, done.trace);
    if (keep_traces) done.run.trace = std::move(done.trace);
    result.runs.push_back(std::move(done.run));
  };
  if (lanes <= 1) {
    for (const CampaignCell& cell : cells) {
      announce(progress, cell);
      ExecutedCell done = execute(spec, cell, hold_traces);
      deliver(done);
    }
    return result;
  }

  struct Slot {
    std::optional<ExecutedCell> done;
    std::exception_ptr error;
  };
  std::mutex mutex;
  std::condition_variable finished;
  std::vector<Slot> slots(cells.size());  // the reorder buffer
  std::size_t next = 0;                   // the next cell to dispatch
  std::size_t limit = cells.size();       // no cell from here on starts
  std::exception_ptr failure;
  auto deliver_in_order = [&] {
    for (Slot& slot : slots) {
      ExecutedCell done;
      {
        std::unique_lock lock(mutex);
        finished.wait(lock, [&] { return slot.done || slot.error; });
        if (slot.error) {
          failure = slot.error;
          limit = 0;
          return;
        }
        done = std::move(*slot.done);
        slot.done.reset();
      }
      try {
        deliver(done);
      } catch (...) {
        const std::lock_guard lock(mutex);
        failure = std::current_exception();
        limit = 0;
        return;
      }
    }
  };
  auto run_lane = [&] {
    for (;;) {
      std::size_t i = 0;
      {
        const std::lock_guard lock(mutex);
        if (next >= limit) return;
        i = next++;
        announce(progress, cells[i]);
      }
      try {
        ExecutedCell done = execute(spec, cells[i], hold_traces);
        const std::lock_guard lock(mutex);
        slots[i].done = std::move(done);
      } catch (...) {
        const std::lock_guard lock(mutex);
        slots[i].error = std::current_exception();
        limit = std::min(limit, i + 1);
      }
      finished.notify_one();
    }
  };
  WorkerPool pool(lanes + 1);
  pool.run([&](unsigned w) {
    if (w == 0) {
      deliver_in_order();
    } else {
      run_lane();
    }
  });
  if (failure) std::rethrow_exception(failure);
  return result;
}

}  // namespace

namespace campaign_detail {

unsigned campaign_lanes(const CampaignSpec& spec) {
  // Distributed cells fork their workers: a forking process keeps no
  // other threads.
  if (std::find(spec.backends.begin(), spec.backends.end(),
                BackendKind::kDistributed) != spec.backends.end()) {
    return 1;
  }
  // Half the CPUs this process may run on, so that a cell under the
  // parallel engine, and the host's other work, keep room.
  unsigned cpus = std::thread::hardware_concurrency();
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    cpus = static_cast<unsigned>(CPU_COUNT(&allowed));
  }
  return std::max(1u, cpus / 2);
}

CampaignResult run_campaign_on_lanes(const CampaignSpec& spec,
                                     std::ostream* progress,
                                     const CellVisitor& visit,
                                     unsigned lanes) {
  return run_cells(spec, progress, visit, /*keep_traces=*/false, lanes);
}

}  // namespace campaign_detail

CampaignResult run_campaign(const CampaignSpec& spec, std::ostream* progress,
                            const CellVisitor& visit) {
  return run_cells(spec, progress, visit, /*keep_traces=*/false,
                   campaign_detail::campaign_lanes(spec));
}

CampaignResult run_campaign(const CampaignSpec& spec, std::ostream* progress) {
  return run_cells(spec, progress, nullptr, /*keep_traces=*/true,
                   campaign_detail::campaign_lanes(spec));
}

// ---------------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------------

void write_campaign_json(std::ostream& os, const CampaignResult& result) {
  JsonWriter w(os);
  w.begin_object();
  w.key("schema_version").value(kResultSchemaVersion);
  w.key("tool").value("nobl");
  w.key("campaign").value(result.spec.name);
  w.key("engines").begin_array();
  for (const auto& policy : result.spec.engines) w.value(to_string(policy));
  w.end_array();
  w.key("backends").begin_array();
  for (const BackendKind kind : result.spec.backends) w.value(to_string(kind));
  w.end_array();
  w.key("runs").begin_array();
  for (const RunResult& run : result.runs) write_run_json(w, run);
  w.end_array();
  w.end_object();
  os << '\n';
}

void write_run_json(JsonWriter& w, const RunResult& run) {
  w.begin_object();
  w.key("algorithm").value(run.algorithm);
  w.key("engine").value(run.engine);
  w.key("backend").value(run.backend.empty() ? "simulate" : run.backend);
  w.key("n").value(run.n);
  w.key("log_v").value(run.log_v);
  w.key("supersteps").value(run.supersteps);
  w.key("messages").value(run.messages);
  w.key("cells").begin_array();
  for (const CellResult& cell : run.cells) {
    w.begin_object();
    w.key("p").value(cell.p);
    w.key("sigma").value(cell.sigma);
    w.key("h").value(cell.h);
    w.key("predicted").value(cell.predicted);
    w.key("lower_bound").value(cell.lower_bound);
    w.key("ratio_predicted").value(cell.ratio_predicted);
    w.key("ratio_lb").value(cell.ratio_lb);
    w.end_object();
  }
  w.end_array();
  w.key("folds").begin_array();
  for (const FoldResult& fold : run.folds) {
    w.begin_object();
    w.key("p").value(fold.p);
    w.key("alpha").value(fold.alpha);
    w.key("gamma").value(fold.gamma);
    w.end_object();
  }
  w.end_array();
  w.key("certification").begin_object();
  w.key("p").value(run.certification.p);
  w.key("alpha").value(run.certification.alpha);
  w.key("gamma").value(run.certification.gamma);
  w.key("beta_min").value(run.certification.beta_min);
  w.key("beta_at_p").value(run.certification.beta_at_p);
  w.key("guarantee").value(run.certification.guarantee());
  w.end_object();
  if (!run.measured_ms.empty()) {
    // Distributed runs only: measured wall clock per superstep, next to the
    // accounted degree columns above. Absent everywhere else (including
    // served cache hits) — consumers must treat the key as optional.
    w.key("measured").begin_object();
    w.key("transport").value(run.transport);
    w.key("workers").value(run.dist_workers);
    w.key("total_ms").value(run.measured_total_ms);
    w.key("superstep_ms").begin_array();
    for (const double ms : run.measured_ms) w.value(ms);
    w.end_array();
    w.end_object();
  }
  w.end_object();
}

void write_campaign_spec(std::ostream& os, const CampaignSpec& spec) {
  if (!spec.name.empty()) os << "name = " << spec.name << "\n";
  os << "algorithms = ";
  for (std::size_t i = 0; i < spec.sweeps.size(); ++i) {
    if (i != 0) os << ", ";
    os << spec.sweeps[i].algorithm;
    for (const std::uint64_t n : spec.sweeps[i].sizes) os << ":" << n;
  }
  os << "\n";
  os << "engines = ";
  for (std::size_t i = 0; i < spec.engines.size(); ++i) {
    if (i != 0) os << ", ";
    os << to_string(spec.engines[i]);
  }
  os << "\n";
  os << "backends = ";
  for (std::size_t i = 0; i < spec.backends.size(); ++i) {
    if (i != 0) os << ", ";
    os << to_string(spec.backends[i]);
  }
  os << "\n";
  if (!spec.sigmas.empty()) {
    os << "sigmas = ";
    for (std::size_t i = 0; i < spec.sigmas.size(); ++i) {
      if (i != 0) os << ", ";
      os << json_number(spec.sigmas[i]);
    }
    os << "\n";
  }
  if (spec.max_fold != 0) os << "max_fold = " << spec.max_fold << "\n";
  if (spec.dist.transport != dist::Transport::kFork) {
    os << "transport = " << dist::to_string(spec.dist.transport) << "\n";
  }
  if (spec.dist.workers != 0) {
    os << "dist_workers = " << spec.dist.workers << "\n";
  }
}

void print_campaign_text(std::ostream& os, const CampaignResult& result) {
  os << "campaign: " << result.spec.name << "\n";
  for (const RunResult& run : result.runs) {
    const std::string tag =
        run.backend.empty() || run.backend == "simulate"
            ? run.engine
            : run.engine + ", " + run.backend;
    Table h(run.algorithm + " n=" + std::to_string(run.n) + " [" + tag +
                "]: H vs closed forms",
            {"p", "sigma", "H measured", "H predicted", "meas/pred",
             "lower bound", "meas/LB"});
    for (const CellResult& cell : run.cells) {
      h.row()
          .add(cell.p)
          .add(cell.sigma)
          .add(cell.h)
          .add(cell.predicted)
          .add(cell.ratio_predicted)
          .add(cell.lower_bound)
          .add(cell.ratio_lb);
    }
    os << h;
    Table wise(run.algorithm + " n=" + std::to_string(run.n) + " [" + tag +
                   "]: wiseness/fullness per fold",
               {"p", "alpha (Def 3.2)", "gamma (Def 5.2)"});
    for (const FoldResult& fold : run.folds) {
      wise.row().add(fold.p).add(fold.alpha).add(fold.gamma);
    }
    os << wise;
    os << "  certification at p=" << run.certification.p
       << ": alpha=" << Table::format_double(run.certification.alpha)
       << " gamma=" << Table::format_double(run.certification.gamma)
       << " beta_min=" << Table::format_double(run.certification.beta_min)
       << " guarantee=" << Table::format_double(run.certification.guarantee())
       << "\n";
    if (!run.measured_ms.empty()) {
      Table meas(run.algorithm + " n=" + std::to_string(run.n) +
                     ": measured wall clock (" + run.transport + ", " +
                     std::to_string(run.dist_workers) + " workers)",
                 {"superstep", "measured ms"});
      for (std::size_t i = 0; i < run.measured_ms.size(); ++i) {
        meas.row().add(static_cast<std::uint64_t>(i)).add(run.measured_ms[i]);
      }
      os << meas;
      os << "  measured total: " << Table::format_double(run.measured_total_ms)
         << " ms\n";
    }
  }
}

// ---------------------------------------------------------------------------
// Validation + thresholds (the `nobl check` / CI side).
// ---------------------------------------------------------------------------

namespace {

void require_number(const JsonValue& obj, const char* key,
                    const std::string& where, std::vector<std::string>* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    out->push_back(where + ": missing numeric \"" + key + "\"");
  }
}

}  // namespace

std::vector<std::string> validate_campaign_json(const JsonValue& doc) {
  std::vector<std::string> out;
  if (!doc.is_object()) {
    out.push_back("document: not a JSON object");
    return out;
  }
  const JsonValue* version = doc.find("schema_version");
  if (version == nullptr || !version->is_number()) {
    out.push_back("document: missing numeric \"schema_version\"");
    return out;
  }
  if (static_cast<int>(version->as_number()) != kResultSchemaVersion) {
    out.push_back("document: schema_version " +
                  json_number(version->as_number()) + " != supported " +
                  std::to_string(kResultSchemaVersion));
    return out;
  }
  const JsonValue* campaign = doc.find("campaign");
  if (campaign == nullptr || !campaign->is_string()) {
    out.push_back("document: missing string \"campaign\"");
  }
  const JsonValue* runs = doc.find("runs");
  if (runs == nullptr || !runs->is_array()) {
    out.push_back("document: missing array \"runs\"");
    return out;
  }

  // (algorithm, n) -> rendered H cells of the first (engine, backend) seen;
  // later engines AND backends must match exactly (bit-identical by the
  // Program API contract).
  std::map<std::string, std::pair<std::string, std::string>> first_engine;
  std::size_t index = 0;
  for (const JsonValue& run : runs->as_array()) {
    const std::string where = "runs[" + std::to_string(index++) + "]";
    if (!run.is_object()) {
      out.push_back(where + ": not an object");
      continue;
    }
    const JsonValue* algorithm = run.find("algorithm");
    const JsonValue* engine = run.find("engine");
    if (algorithm == nullptr || !algorithm->is_string()) {
      out.push_back(where + ": missing string \"algorithm\"");
      continue;
    }
    if (engine == nullptr || !engine->is_string()) {
      out.push_back(where + ": missing string \"engine\"");
      continue;
    }
    // Documents from before the backend dimension omit the key; treat them
    // as simulate runs.
    const JsonValue* backend_value = run.find("backend");
    if (backend_value != nullptr && !backend_value->is_string()) {
      out.push_back(where + ": \"backend\" must be a string");
      continue;
    }
    const std::string backend_name =
        backend_value != nullptr ? backend_value->as_string() : "simulate";
    require_number(run, "n", where, &out);
    require_number(run, "supersteps", where, &out);
    require_number(run, "messages", where, &out);
    const JsonValue* cells = run.find("cells");
    if (cells == nullptr || !cells->is_array() || cells->as_array().empty()) {
      out.push_back(where + ": missing non-empty array \"cells\"");
      continue;
    }
    std::string h_fingerprint;
    for (const JsonValue& cell : cells->as_array()) {
      if (!cell.is_object()) {
        out.push_back(where + ": cell is not an object");
        continue;
      }
      for (const char* key :
           {"p", "sigma", "h", "predicted", "lower_bound", "ratio_lb"}) {
        require_number(cell, key, where + ".cells", &out);
      }
      if (cell.find("p") != nullptr && cell.find("sigma") != nullptr &&
          cell.find("h") != nullptr) {
        h_fingerprint += json_number(cell.at("p").as_number()) + "," +
                         json_number(cell.at("sigma").as_number()) + "," +
                         json_number(cell.at("h").as_number()) + ";";
      }
    }
    const JsonValue* cert = run.find("certification");
    if (cert == nullptr || !cert->is_object()) {
      out.push_back(where + ": missing object \"certification\"");
    } else {
      for (const char* key : {"alpha", "gamma", "beta_min", "guarantee"}) {
        require_number(*cert, key, where + ".certification", &out);
      }
    }

    const std::string group =
        algorithm->as_string() + "/n=" +
        json_number(run.find("n") != nullptr && run.at("n").is_number()
                        ? run.at("n").as_number()
                        : -1.0);
    const std::string stack = engine->as_string() + ", " + backend_name;
    const auto [it, inserted] =
        first_engine.try_emplace(group, stack, h_fingerprint);
    if (!inserted && it->second.second != h_fingerprint) {
      out.push_back(where + ": H cells of " + group + " under [" + stack +
                    "] differ from [" + it->second.first +
                    "] (engines and backends must be bit-identical)");
    }
  }
  return out;
}

void write_registry_json(std::ostream& os) {
  JsonWriter w(os);
  w.begin_object();
  w.key("schema_version").value(kResultSchemaVersion);
  w.key("algorithms").begin_array();
  for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
    w.begin_object();
    w.key("name").value(entry.name);
    w.key("summary").value(entry.summary);
    w.key("source").value(entry.source);
    w.key("size_rule").value(entry.size_rule);
    w.key("pattern").value(entry.pattern);
    w.key("formula").value(entry.formula);
    w.key("header").value(entry.header);
    w.key("exact_h").value(entry.exact_h);
    w.key("input_independent").value(entry.input_independent);
    w.key("bench_sizes").begin_array();
    for (const auto size : entry.bench_sizes) w.value(size);
    w.end_array();
    w.key("smoke_sizes").begin_array();
    for (const auto size : entry.smoke_sizes) w.value(size);
    w.end_array();
    w.key("max_sweep_size").value(entry.max_sweep_size);
    w.key("backends").begin_array();
    for (const BackendKind kind : entry.backends) w.value(to_string(kind));
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("campaigns").begin_array();
  for (const auto& name : builtin_campaign_names()) w.value(name);
  w.end_array();
  w.end_object();
  os << '\n';
}

std::vector<std::string> check_thresholds(const JsonValue& results,
                                          const JsonValue& thresholds) {
  std::vector<std::string> out = validate_campaign_json(results);
  if (!out.empty()) return out;
  if (!thresholds.is_object()) {
    out.push_back("thresholds: not a JSON object");
    return out;
  }
  const JsonValue* algos = thresholds.find("algorithms");
  if (algos == nullptr || !algos->is_object()) {
    out.push_back("thresholds: missing object \"algorithms\"");
    return out;
  }

  for (const auto& [algo, limits] : algos->as_object()) {
    const JsonValue* max_ratio_lb = limits.find("max_ratio_lb");
    const JsonValue* min_alpha = limits.find("min_alpha");
    const JsonValue* min_guarantee = limits.find("min_guarantee");
    bool seen = false;
    for (const JsonValue& run : results.at("runs").as_array()) {
      if (run.at("algorithm").as_string() != algo) continue;
      seen = true;
      const std::string where =
          algo + " n=" + json_number(run.at("n").as_number()) + " [" +
          run.at("engine").as_string() + "]";
      if (max_ratio_lb != nullptr) {
        for (const JsonValue& cell : run.at("cells").as_array()) {
          const double ratio = cell.at("ratio_lb").as_number();
          if (ratio > max_ratio_lb->as_number()) {
            out.push_back(where + ": H/LB = " + json_number(ratio) + " at p=" +
                          json_number(cell.at("p").as_number()) + " sigma=" +
                          json_number(cell.at("sigma").as_number()) +
                          " exceeds max_ratio_lb = " +
                          json_number(max_ratio_lb->as_number()));
          }
        }
      }
      const JsonValue& cert = run.at("certification");
      if (min_alpha != nullptr &&
          cert.at("alpha").as_number() < min_alpha->as_number()) {
        out.push_back(where + ": alpha = " +
                      json_number(cert.at("alpha").as_number()) +
                      " below min_alpha = " +
                      json_number(min_alpha->as_number()));
      }
      if (min_guarantee != nullptr &&
          cert.at("guarantee").as_number() < min_guarantee->as_number()) {
        out.push_back(where + ": guarantee = " +
                      json_number(cert.at("guarantee").as_number()) +
                      " below min_guarantee = " +
                      json_number(min_guarantee->as_number()));
      }
    }
    if (!seen) {
      out.push_back("thresholds name algorithm \"" + algo +
                    "\" but the results contain no runs for it");
    }
  }
  return out;
}

}  // namespace nobl

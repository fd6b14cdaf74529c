// Traced run: calls each layer's public functions in-process and times
// them with spans recorded from this file (none inside src/).
//
//   perfbench_layers --spec FILE [--spec FILE ...] --cells FILE
//                    --dist-spec FILE [--dist-spec FILE ...] --dir DIR
//                    --seconds T --own SPAN
//
// One pass runs three sections, each a root span:
//   kernels  every cell of the --spec files through simulate, cost,
//            record + schedule replay, ir_opt, the analytic dispatch,
//            evaluate_run, certify_optimality, the folding checks and
//            write_run_json;
//   serve    the serve working set (--cells) through ResultCache prefill,
//            .nbt encode and decode of each trace, then the fixed query
//            stream of common.hpp (untimed warm-up, then measured Zipf
//            queries) through the framer, spec parse, the cache tiers,
//            evaluate_run and write_run_json;
//   dist     worker spawn and teardown plus block-sized ping-pong over fork
//            and loopback TCP, then the --dist-spec campaigns in-process
//            and the same cells under cost.
// Passes repeat until T seconds have elapsed (at least two, so counts can
// be checked to repeat). Every section also checks its outputs: traces
// bit-identical across backends, served docs equal to the campaign path.
// The last stdout line is one JSON object: per-layer self times (median
// over passes), counts, and the whole duration of the --own span (kernels,
// serve.queries or dist.run), the part comparable with the workload's
// end-to-end pass.
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bsp/backend.hpp"
#include "bsp/ir_opt.hpp"
#include "bsp/trace_io.hpp"
#include "bsp/trace_store.hpp"
#include "cli/campaign.hpp"
#include "common.hpp"
#include "core/analytic.hpp"
#include "core/experiment.hpp"
#include "core/optimality.hpp"
#include "core/registry.hpp"
#include "core/wiseness.hpp"
#include "dist/channel.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "util/bits.hpp"
#include "util/json.hpp"

namespace {

using perfbench::Scope;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

struct Args {
  std::vector<std::string> specs;
  std::vector<std::string> dist_specs;
  std::string cells;
  std::string dir;
  std::string own = "kernels";
  double seconds = 10.0;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--spec") {
      args.specs.push_back(value);
    } else if (flag == "--dist-spec") {
      args.dist_specs.push_back(value);
    } else if (flag == "--cells") {
      args.cells = value;
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--own") {
      args.own = value;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.specs.empty() || args.dist_specs.empty() || args.cells.empty() ||
      args.dir.empty()) {
    throw std::invalid_argument(
        "--spec, --dist-spec, --cells and --dir are required");
  }
  return args;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Counts, timing samples and output checks of one pass. Counts must
/// repeat exactly from pass to pass.
struct PassCounts {
  std::map<std::string, double> counts;
  std::map<std::string, std::vector<double>> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "perfbench_layers: check failed: " << what << "\n";
    }
  }
};

const nobl::ExecutionPolicy kSeq = nobl::ExecutionPolicy::sequential();

std::string run_json(const nobl::RunResult& run) {
  std::ostringstream os;
  nobl::JsonWriter w(os, /*indent=*/0);
  nobl::write_run_json(w, run);
  return os.str();
}

// ---------------------------------------------------------------- kernels

void kernel_cell(Tracer& tracer, const nobl::CampaignSpec& spec,
                 const nobl::AlgoEntry& entry, std::uint64_t n,
                 PassCounts& pc) {
  const std::string cell = entry.name + ":" + std::to_string(n);
  nobl::Trace simulated;
  {
    Scope s(tracer, "bsp.simulate_exec");
    simulated = entry.runner(n, {kSeq, nobl::BackendKind::kSimulate});
  }
  nobl::Trace trace;
  {
    Scope s(tracer, "bsp.cost_exec");
    trace = entry.runner(n, {kSeq, nobl::BackendKind::kCost});
  }
  pc.check(perfbench::same_trace(simulated, trace), cell + " simulate == cost");
  pc.counts["bsp.messages"] += static_cast<double>(trace.total_messages());
  pc.counts["bsp.supersteps"] += static_cast<double>(trace.supersteps());

  nobl::RunResult run;
  {
    Scope s(tracer, "cli.evaluate");
    run = nobl::evaluate_run(spec, entry, n, nobl::BackendKind::kCost, kSeq,
                             trace);
  }
  pc.counts["cli.h_cells"] += static_cast<double>(run.cells.size());
  std::string json;
  {
    Scope s(tracer, "util.json_write");
    json = run_json(run);
  }
  pc.counts["util.json_bytes"] += static_cast<double>(json.size());

  nobl::Schedule schedule;
  {
    Scope s(tracer, "bsp.record_exec");
    nobl::RunOptions options{kSeq, nobl::BackendKind::kRecord};
    options.capture = &schedule;
    (void)entry.runner(n, options);
  }
  pc.counts["bsp.schedule_events"] +=
      static_cast<double>(schedule.total_sends());
  nobl::Trace replayed;
  {
    Scope s(tracer, "bsp.degree_replay");
    replayed = schedule.replay_trace();
  }
  pc.check(perfbench::same_trace(replayed, trace), cell + " record replay");
  nobl::OptimizedSchedule optimized;
  {
    Scope s(tracer, "bsp.ir_opt.optimize");
    optimized = nobl::optimize_schedule(schedule);
  }
  {
    Scope s(tracer, "bsp.ir_opt.replay");
    replayed = optimized.replay_trace();
  }
  pc.check(perfbench::same_trace(replayed, trace), cell + " ir_opt replay");
  const nobl::OptimizeStats stats = optimized.stats();
  pc.counts["ir_opt.events_total"] += static_cast<double>(stats.events_total);
  pc.counts["ir_opt.events_retained"] +=
      static_cast<double>(stats.events_retained);
  pc.counts["ir_opt.irregular"] += static_cast<double>(stats.irregular);
  pc.counts["ir_opt.steps"] += static_cast<double>(optimized.steps.size());

  const char* analytic_path = entry.exact_h              ? "core.analytic_symbolic"
                              : !entry.input_independent ? "core.analytic_fallback"
                                                         : "core.analytic_memo";
  {
    Scope s(tracer, analytic_path);
    replayed = nobl::AnalyticBackend::instance().trace_for(entry, n);
  }
  pc.check(perfbench::same_trace(replayed, trace), cell + " analytic");

  if (trace.v() >= 2) {
    const unsigned log_top = nobl::log2_exact(trace.v());
    const std::vector<double> grid = nobl::sigma_grid(n, trace.v());
    nobl::OptimalityReport report;
    {
      Scope s(tracer, "core.certify");
      report = nobl::certify_optimality(trace, n, log_top, entry.lower_bound,
                                        grid);
    }
    pc.check(report.alpha == run.certification.alpha &&
                 report.beta_min == run.certification.beta_min,
             cell + " certification");
  }
  bool folding = true;
  {
    Scope s(tracer, "core.folding_check");
    for (unsigned log_p = 1; log_p <= trace.log_v(); ++log_p) {
      folding = nobl::folding_inequality_holds(trace, log_p) && folding;
    }
  }
  pc.counts["core.folding_holds"] += folding ? 1.0 : 0.0;
}

void kernel_section(Tracer& tracer,
                    const std::vector<nobl::CampaignSpec>& specs,
                    PassCounts& pc) {
  // Every CLI certify starts with an empty schedule memo; so does a pass.
  nobl::AnalyticBackend::instance().clear();
  for (const nobl::CampaignSpec& spec : specs) {
    for (const nobl::AlgoSweep& sweep : spec.sweeps) {
      const nobl::AlgoEntry& entry =
          nobl::AlgoRegistry::instance().at(sweep.algorithm);
      for (const std::uint64_t n : sweep.sizes) {
        kernel_cell(tracer, spec, entry, n, pc);
      }
    }
  }
}

// ------------------------------------------------------------------ serve

struct ServeInputs {
  std::vector<perfbench::Cell> cells;
  std::vector<std::string> references;  ///< run doc per cell, campaign path
};

ServeInputs serve_inputs(const std::string& path) {
  ServeInputs inputs;
  inputs.cells = perfbench::read_cells(path);
  for (const perfbench::Cell& cell : inputs.cells) {
    const nobl::CampaignResult result = nobl::run_campaign(
        nobl::parse_campaign_spec(perfbench::query_spec(cell)));
    inputs.references.push_back(run_json(result.runs.at(0)));
  }
  return inputs;
}

/// One served query on the in-process path; spans go to `tracer`.
void serve_query(Tracer& tracer, nobl::serve::ResultCache& cache,
                 const nobl::serve::Request& req, const std::string& reference,
                 PassCounts* pc) {
  nobl::CampaignSpec spec;
  {
    Scope s(tracer, "cli.spec_parse");
    spec = nobl::parse_campaign_spec(req.spec_text);
  }
  const nobl::AlgoEntry& entry =
      nobl::AlgoRegistry::instance().at(spec.sweeps.at(0).algorithm);
  const std::uint64_t n = spec.sweeps.at(0).sizes.at(0);
  const nobl::BackendKind backend = spec.backends.at(0);
  const nobl::serve::CacheKey key{entry.name, n, backend};
  nobl::serve::CacheTier tier = nobl::serve::CacheTier::kExecuted;
  const int id = tracer.begin("serve.cache");
  const std::shared_ptr<const nobl::Trace> trace = cache.get_or_compute(
      key, [&] { return entry.runner(n, {kSeq, backend}); }, &tier);
  tracer.end(id);
  // A disk hit includes the cache's own .nbt read and decode.
  if (tier == nobl::serve::CacheTier::kMemory) {
    tracer.rename(id, "serve.cache_memory");
  } else if (tier == nobl::serve::CacheTier::kDisk) {
    tracer.rename(id, "serve.cache_disk");
  }
  nobl::RunResult run;
  {
    Scope s(tracer, "cli.evaluate");
    run = nobl::evaluate_run(spec, entry, n, backend, kSeq, nobl::Trace(*trace));
  }
  std::string json;
  {
    Scope s(tracer, "util.json_write");
    json = run_json(run);
  }
  if (pc != nullptr) {
    pc->check(json == reference, key.string_key() + " served doc");
    pc->counts[std::string("serve.tier.") + nobl::serve::to_string(tier)] += 1;
  }
}

void serve_section(Tracer& tracer, const ServeInputs& inputs,
                   const std::string& cache_dir, PassCounts& pc) {
  std::filesystem::remove_all(cache_dir);
  nobl::serve::ResultCache cache({cache_dir, 16});
  for (const perfbench::Cell& cell : inputs.cells) {
    const nobl::AlgoEntry& entry = nobl::AlgoRegistry::instance().at(cell.kernel);
    const nobl::BackendKind backend = nobl::backend_from_string(cell.backend);
    std::shared_ptr<const nobl::Trace> trace;
    {
      Scope s(tracer, "serve.cache_fill");
      trace = cache.get_or_compute(
          {cell.kernel, cell.n, backend},
          [&] { return entry.runner(cell.n, {kSeq, backend}); });
    }
    std::ostringstream os;
    {
      Scope s(tracer, "bsp.trace_store.encode");
      nobl::write_trace_bin(os, *trace);
    }
    pc.counts["bsp.trace_store.bytes"] += static_cast<double>(os.str().size());
    nobl::Trace decoded;
    {
      Scope s(tracer, "bsp.trace_store.decode");
      decoded = nobl::TraceReader::from_bytes(os.str()).materialize();
    }
    pc.check(perfbench::same_trace(decoded, *trace),
             cell.kernel + ":" + std::to_string(cell.n) + " .nbt round trip");
  }

  // The byte stream one client connection would carry: warm-up queries
  // first, then the measured ones.
  const std::uint64_t warmup = perfbench::kServeWarmup;
  perfbench::ZipfRanks ranks(inputs.cells.size(), perfbench::kServeStreamSeed);
  std::vector<std::size_t> order;
  std::string stream;
  for (std::uint64_t i = 0; i < warmup + perfbench::kServeQueries; ++i) {
    order.push_back(ranks.next());
    stream += perfbench::query_spec(inputs.cells[order.back()]);
    stream += nobl::serve::kRequestSentinel;
    stream += '\n';
  }
  std::vector<nobl::serve::Request> requests;
  {
    Scope s(tracer, "serve.framer");
    nobl::serve::RequestFramer framer;
    constexpr std::size_t kChunk = 4096;
    for (std::size_t at = 0; at < stream.size(); at += kChunk) {
      framer.feed(std::string_view(stream).substr(at, kChunk));
      while (std::optional<nobl::serve::Request> r = framer.next()) {
        requests.push_back(std::move(*r));
      }
    }
    framer.finish();
    while (std::optional<nobl::serve::Request> r = framer.next()) {
      requests.push_back(std::move(*r));
    }
  }
  pc.check(requests.size() == order.size(), "framer request count");
  Tracer untimed;
  const std::size_t total = std::min(requests.size(), order.size());
  for (std::size_t i = 0; i < total && i < warmup; ++i) {
    serve_query(untimed, cache, requests[i], inputs.references[order[i]],
                nullptr);
  }
  Scope s(tracer, "serve.queries");
  for (std::size_t i = warmup; i < total; ++i) {
    serve_query(tracer, cache, requests[i], inputs.references[order[i]], &pc);
  }
}

// ------------------------------------------------------------------- dist

// One frame shaped like DistributedBackend::end_superstep's block: kind
// byte, label, event count, then four event columns, each its own write;
// the peer answers with a one-byte ack.
constexpr std::uint64_t kBlockEvents = 64;
constexpr char kFrameBlock = 'B';
constexpr char kFrameQuit = 'Q';

bool send_block(nobl::dist::Channel& ch, std::vector<std::uint64_t>& column) {
  const char frame = kFrameBlock;
  const std::uint32_t label = 1;
  const std::uint64_t events = kBlockEvents;
  const std::size_t bytes = column.size() * sizeof(std::uint64_t);
  return ch.send(&frame, 1) && ch.send(&label, sizeof(label)) &&
         ch.send(&events, sizeof(events)) && ch.send(column.data(), bytes) &&
         ch.send(column.data(), bytes) && ch.send(column.data(), bytes) &&
         ch.send(column.data(), bytes);
}

void echo_worker(unsigned /*index*/, nobl::dist::Channel& ch) {
  std::vector<std::uint64_t> column(kBlockEvents);
  while (true) {
    char frame = 0;
    if (!ch.recv(&frame, 1) || frame != kFrameBlock) return;
    std::uint32_t label = 0;
    std::uint64_t events = 0;
    if (!ch.recv(&label, sizeof(label)) || !ch.recv(&events, sizeof(events)) ||
        events != kBlockEvents) {
      return;
    }
    for (int c = 0; c < 4; ++c) {
      if (!ch.recv(column.data(), column.size() * sizeof(std::uint64_t))) {
        return;
      }
    }
    const char ack = 'A';
    if (!ch.send(&ack, 1)) return;
  }
}

void transport_probe(Tracer& tracer, nobl::dist::Transport transport,
                     unsigned round_trips, PassCounts& pc) {
  const bool tcp = transport == nobl::dist::Transport::kTcp;
  std::vector<nobl::dist::WorkerLink> links;
  {
    Scope s(tracer, tcp ? "dist.spawn.tcp" : "dist.spawn.fork");
    links = nobl::dist::spawn_workers(transport, 2, echo_worker);
  }
  std::vector<std::uint64_t> column(kBlockEvents, 7);
  bool ok = true;
  {
    Scope s(tracer, tcp ? "dist.rtt.tcp" : "dist.rtt.fork");
    for (unsigned r = 0; r < round_trips && ok; ++r) {
      nobl::dist::Channel& ch = *links[r % links.size()].channel;
      char ack = 0;
      ok = send_block(ch, column) && ch.recv(&ack, 1) && ack == 'A';
    }
  }
  pc.check(ok, std::string("ping-pong over ") + (tcp ? "tcp" : "fork"));
  {
    Scope s(tracer, tcp ? "dist.teardown.tcp" : "dist.teardown.fork");
    for (nobl::dist::WorkerLink& link : links) {
      const char quit = kFrameQuit;
      (void)link.channel->send(&quit, 1);
      link.channel.reset();
      int status = 0;
      while (::waitpid(link.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }
}

void dist_section(Tracer& tracer, const std::vector<nobl::CampaignSpec>& specs,
                  unsigned fork_trips, unsigned tcp_trips, PassCounts& pc) {
  transport_probe(tracer, nobl::dist::Transport::kFork, fork_trips, pc);
  transport_probe(tracer, nobl::dist::Transport::kTcp, tcp_trips, pc);
  double measured_ms = 0.0;
  double wall_ms = 0.0;
  for (const nobl::CampaignSpec& spec : specs) {
    nobl::CampaignResult result;
    const auto start = Clock::now();
    {
      Scope s(tracer, "dist.run");
      result = nobl::run_campaign(spec);
    }
    wall_ms += std::chrono::duration<double, std::milli>(Clock::now() - start)
                   .count();
    for (const nobl::RunResult& run : result.runs) {
      measured_ms += run.measured_total_ms;
      std::vector<double>& column =
          pc.samples["dist.superstep_ms." + run.transport];
      column.insert(column.end(), run.measured_ms.begin(),
                    run.measured_ms.end());
      const nobl::AlgoEntry& entry =
          nobl::AlgoRegistry::instance().at(run.algorithm);
      nobl::Trace cost;
      {
        Scope s(tracer, "dist.cost_reference");
        cost = entry.runner(run.n, {kSeq, nobl::BackendKind::kCost});
      }
      pc.check(perfbench::same_trace(run.trace, cost),
               run.algorithm + ":" + std::to_string(run.n) + " distributed");
    }
  }
  pc.samples["dist.unmeasured_ms"].push_back(wall_ms - measured_ms);
}

// ------------------------------------------------------------------- main

int run(const Args& args) {
  std::vector<nobl::CampaignSpec> specs;
  for (const std::string& path : args.specs) {
    specs.push_back(nobl::parse_campaign_spec(read_text(path)));
  }
  std::vector<nobl::CampaignSpec> dist_specs;
  for (const std::string& path : args.dist_specs) {
    dist_specs.push_back(nobl::parse_campaign_spec(read_text(path)));
  }
  const ServeInputs serve = serve_inputs(args.cells);
  const std::string cache_dir =
      (std::filesystem::path(args.dir) / "cache").string();
  constexpr unsigned kForkTrips = 2000;
  constexpr unsigned kTcpTrips = 10;

  Tracer tracer;
  std::vector<PassCounts> passes;
  const auto start = Clock::now();
  while (passes.size() < 2 ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             args.seconds) {
    PassCounts pc;
    tracer.set_pass(static_cast<int>(passes.size()));
    {
      Scope s(tracer, "kernels");
      kernel_section(tracer, specs, pc);
    }
    {
      Scope s(tracer, "serve");
      serve_section(tracer, serve, cache_dir, pc);
    }
    {
      Scope s(tracer, "dist");
      dist_section(tracer, dist_specs, kForkTrips, kTcpTrips, pc);
    }
    passes.push_back(std::move(pc));
  }
  std::filesystem::remove_all(cache_dir);

  // Self time per layer name, per pass.
  const auto self = tracer.self_times();
  const auto per_pass = [&](const std::string& name) {
    std::vector<double> xs;
    for (const auto& [pass, names] : self) {
      const auto it = names.find(name);
      xs.push_back(it == names.end() ? 0.0 : it->second);
    }
    return xs;
  };
  const auto med = [&](const std::string& name) {
    return perfbench::median(per_pass(name));
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const PassCounts& pc : passes) {
    attempted += pc.attempted;
    failed += pc.failed;
  }
  // Counts must repeat exactly from pass to pass.
  for (const auto& [name, value] : passes.front().counts) {
    for (const PassCounts& pc : passes) {
      ++attempted;
      const auto it = pc.counts.find(name);
      if (it == pc.counts.end() || it->second != value) {
        ++failed;
        std::cerr << "perfbench_layers: count " << name
                  << " differs between passes\n";
      }
    }
  }
  const std::map<std::string, double>& c = passes.front().counts;
  const auto count = [&](const std::string& name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  // Timing samples pooled over passes.
  const auto pooled = [&](const std::string& name) {
    std::vector<double> xs;
    for (const PassCounts& pc : passes) {
      const auto it = pc.samples.find(name);
      if (it != pc.samples.end()) {
        xs.insert(xs.end(), it->second.begin(), it->second.end());
      }
    }
    return perfbench::median(xs);
  };
  // The --own section's root span, whole duration, median over passes.
  std::vector<double> own;
  for (const auto& [pass, names] : tracer.durations()) {
    const auto it = names.find(args.own);
    own.push_back(it == names.end() ? 0.0 : it->second);
  }

  const double cost = med("bsp.cost_exec");
  const double replay = med("bsp.degree_replay");
  const auto serve_queries = static_cast<double>(perfbench::kServeQueries);
  std::map<std::string, double> m = {
      {"bsp.simulate_exec_s", med("bsp.simulate_exec")},
      {"bsp.cost_exec_s", cost},
      {"bsp.simulate_over_cost", med("bsp.simulate_exec") / cost},
      {"bsp.degree_replay_s", replay},
      {"algorithms.body_s", cost - replay},
      {"bsp.msgs_per_s", count("bsp.messages") / cost},
      {"bsp.messages", count("bsp.messages")},
      {"bsp.supersteps", count("bsp.supersteps")},
      {"bsp.record_exec_s", med("bsp.record_exec")},
      {"bsp.schedule_events", count("bsp.schedule_events")},
      {"bsp.ir_opt.optimize_s", med("bsp.ir_opt.optimize")},
      {"bsp.ir_opt.replay_s", med("bsp.ir_opt.replay")},
      {"bsp.ir_opt.retained_event_ratio",
       count("ir_opt.events_retained") / count("ir_opt.events_total")},
      {"bsp.ir_opt.irregular_step_ratio",
       count("ir_opt.irregular") / count("ir_opt.steps")},
      {"core.analytic_symbolic_s", med("core.analytic_symbolic")},
      {"core.analytic_memo_s", med("core.analytic_memo")},
      {"core.analytic_fallback_s", med("core.analytic_fallback")},
      {"core.certify_s", med("core.certify")},
      {"core.folding_check_s", med("core.folding_check")},
      {"cli.evaluate_s", med("cli.evaluate")},
      {"cli.h_cells", count("cli.h_cells")},
      {"cli.spec_parse_s", med("cli.spec_parse")},
      {"util.json_write_s", med("util.json_write")},
      {"util.json_bytes", count("util.json_bytes")},
      {"serve.framer_s", med("serve.framer")},
      {"serve.cache_fill_s", med("serve.cache_fill")},
      {"serve.cache_memory_s", med("serve.cache_memory")},
      {"serve.cache_disk_s", med("serve.cache_disk")},
      {"bsp.trace_store.decode_s", med("bsp.trace_store.decode")},
      {"bsp.trace_store.encode_s", med("bsp.trace_store.encode")},
      {"bsp.trace_store.bytes", count("bsp.trace_store.bytes")},
      {"serve.tier_memory_ratio", count("serve.tier.memory") / serve_queries},
      {"serve.tier_disk_ratio", count("serve.tier.disk") / serve_queries},
      {"dist.spawn_s.fork", med("dist.spawn.fork") + med("dist.teardown.fork")},
      {"dist.spawn_s.tcp", med("dist.spawn.tcp") + med("dist.teardown.tcp")},
      {"dist.rtt_us.fork", med("dist.rtt.fork") / kForkTrips * 1e6},
      {"dist.rtt_us.tcp", med("dist.rtt.tcp") / kTcpTrips * 1e6},
      {"dist.unmeasured_ms", pooled("dist.unmeasured_ms")},
      {"dist.superstep_p50_ms.fork", pooled("dist.superstep_ms.fork")},
      {"dist.superstep_p50_ms.tcp", pooled("dist.superstep_ms.tcp")},
      {"dist.over_cost", med("dist.run") / med("dist.cost_reference")},
      {"trace.pass_s", perfbench::median(own)},
  };

  std::printf("{\"passes\": %zu, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              passes.size(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_layers: " << e.what() << "\n";
    return 2;
  }
}

// nobl — the campaign-runner CLI.
//
//   nobl run      execute a campaign, render text tables and/or JSON
//   nobl certify  optimality/wiseness verdicts (Defs. 3.2/5.2, Thm 3.4)
//   nobl trace    export / inspect / replay recorded traces (csv or .nbt)
//   nobl convert  translate a trace between the csv and binary formats
//   nobl list     enumerate registered algorithms and builtin campaigns
//   nobl audit    static obliviousness verifier: taint-classify kernels,
//                 lint recorded schedules (docs/AUDIT.md)
//   nobl check    validate a result JSON, replay golden traces, or gate a
//                 serve stats document, optionally against thresholds
//   nobl serve    long-running campaign service over a local socket with a
//                 persistent two-tier result cache (docs/SERVE.md)
//
// Every subcommand accepts --help. Exit codes: 0 success, 1 failed
// check/threshold/conformance, 2 usage error.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "audit/kernel_audit.hpp"
#include "bsp/cost.hpp"
#include "bsp/trace_io.hpp"
#include "bsp/trace_store.hpp"
#include "cli/campaign.hpp"
#include "core/experiment.hpp"
#include "core/wiseness.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/bits.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace nobl {
namespace {

int usage_error(const std::string& message, const std::string& help_hint) {
  std::cerr << "nobl: " << message << "\n(try `nobl " << help_hint
            << " --help`)\n";
  return 2;
}

/// Parse a numeric flag value as u64. Unlike bare std::stoull, this names
/// the flag and rejects the whole value — negatives, trailing junk ("64x"),
/// overflow — with an actionable message (exit 2 via std::invalid_argument)
/// instead of silently truncating or dying on an unhandled out_of_range.
std::uint64_t parse_u64_flag(const std::string& flag,
                             const std::string& value) {
  std::uint64_t out = 0;
  const char* const begin = value.data();
  const char* const end = begin + value.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  if (value.empty() || ec != std::errc{} || ptr != end) {
    throw std::invalid_argument(
        flag + ": expected an unsigned integer, got \"" + value + "\"");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Flag registry: the single source of truth for what each subcommand
// accepts. Every parse loop consults it through parse_flags, the hidden
// `nobl __flags` command dumps it, and tests/cli/test_help_drift.cpp pins
// each subcommand's --help text against it — adding a flag here without
// documenting it (or vice versa) fails CI.
// ---------------------------------------------------------------------------

struct FlagSpec {
  const char* name;
  bool takes_value;
};

struct CommandSpec {
  const char* command;
  std::vector<FlagSpec> flags;
  /// convert takes INPUT/OUTPUT positionals; everything else is flags-only.
  bool accepts_positionals;
};

const std::vector<CommandSpec>& command_registry() {
  static const std::vector<CommandSpec> kCommands = {
      {"run",
       {{"--campaign", true},
        {"--spec", true},
        {"--backend", true},
        {"--transport", true},
        {"--dist-workers", true},
        {"--json", true},
        {"--thresholds", true},
        {"--text", false},
        {"--quiet", false},
        {"--help", false}},
       false},
      {"certify",
       {{"--campaign", true},
        {"--spec", true},
        {"--backend", true},
        {"--transport", true},
        {"--dist-workers", true},
        {"--json", true},
        {"--quiet", false},
        {"--help", false}},
       false},
      {"trace",
       {{"--export", true},
        {"--inspect", true},
        {"--replay", true},
        {"--campaign", true},
        {"--spec", true},
        {"--algorithm", true},
        {"--n", true},
        {"--format", true},
        {"--quiet", false},
        {"--help", false}},
       false},
      {"convert", {{"--to", true}, {"--help", false}}, true},
      {"list", {{"--json", false}, {"--help", false}}, false},
      {"audit",
       {{"--kernel", true},
        {"--n", true},
        {"--json", false},
        {"--quiet", false},
        {"--help", false}},
       false},
      {"check",
       {{"--results", true},
        {"--thresholds", true},
        {"--golden", true},
        {"--transport", true},
        {"--serve-stats", true},
        {"--serve-thresholds", true},
        {"--help", false}},
       false},
      {"serve",
       {{"--socket", true},
        {"--cache-dir", true},
        {"--workers", true},
        {"--queue", true},
        {"--memory-entries", true},
        {"--campaign", true},
        {"--spec", true},
        {"--backend", true},
        {"--json", true},
        {"--stats", false},
        {"--ping", false},
        {"--shutdown", false},
        {"--help", false}},
       false},
  };
  return kCommands;
}

const CommandSpec& command_spec(const std::string& command) {
  for (const CommandSpec& spec : command_registry()) {
    if (command == spec.command) return spec;
  }
  throw std::logic_error("no flag table registered for \"" + command + "\"");
}

/// Parse `args` against `command`'s registered flag table. Returns an exit
/// code when the command already finished (--help, usage error); nullopt
/// when the caller should proceed. Recognized flags land in
/// on_flag(name, value) — value is empty for boolean flags; positionals go
/// to on_positional (only for commands registered to accept them).
std::optional<int> parse_flags(
    const std::string& command, const std::vector<std::string>& args,
    const std::function<void()>& help,
    const std::function<void(const std::string&, const std::string&)>& on_flag,
    const std::function<void(const std::string&)>& on_positional = {}) {
  const CommandSpec& spec = command_spec(command);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help") {
      help();
      return 0;
    }
    const FlagSpec* flag = nullptr;
    for (const FlagSpec& candidate : spec.flags) {
      if (arg == candidate.name) {
        flag = &candidate;
        break;
      }
    }
    if (flag == nullptr) {
      const bool looks_like_flag = !arg.empty() && arg[0] == '-' && arg != "-";
      if (!looks_like_flag && spec.accepts_positionals && on_positional) {
        on_positional(arg);
        continue;
      }
      return usage_error("unknown option \"" + arg + "\"", command);
    }
    if (flag->takes_value) {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument(arg + " needs a value");
      }
      on_flag(arg, args[++i]);
    } else {
      on_flag(arg, "");
    }
  }
  return std::nullopt;
}

/// Hidden `nobl __flags`: machine-readable dump of the flag registry, one
/// `<command> <flag> value|switch` line each (consumed by the help-drift
/// test; deliberately absent from `nobl --help`).
int cmd_flags_dump() {
  for (const CommandSpec& command : command_registry()) {
    for (const FlagSpec& flag : command.flags) {
      std::cout << command.command << " " << flag.name << " "
                << (flag.takes_value ? "value" : "switch") << "\n";
    }
  }
  return 0;
}

/// Read all of `path`. Uses stdio because ferror() tells a failed read
/// (a directory, an I/O error) apart from the end of the file, which an
/// ifstream reports alike.
[[nodiscard]] std::string read_file(const std::string& path) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  std::string bytes;
  if (file != nullptr) {
    char chunk[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(chunk, 1, sizeof chunk, file.get())) > 0) {
      bytes.append(chunk, got);
    }
  }
  if (file == nullptr || std::ferror(file.get()) != 0) {
    throw std::invalid_argument("cannot read \"" + path + "\"");
  }
  return bytes;
}

/// Write `path` through `write`, then close the file and check the stream:
/// a full disk or an unwritable path fails here rather than reporting
/// success.
void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& write) {
  std::ofstream out(path, std::ios::binary);
  if (out) write(out);
  out.close();
  if (!out) throw std::invalid_argument("cannot write \"" + path + "\"");
}

/// Load a trace from `path` in either format, sniffing the binary magic —
/// the CLI treats CSV and binary traces interchangeably everywhere.
[[nodiscard]] Trace load_trace_any(const std::string& path) {
  std::string bytes = read_file(path);
  if (looks_like_trace_bin(bytes)) {
    return TraceReader::from_bytes(std::move(bytes)).materialize();
  }
  std::istringstream in(bytes);
  return read_trace_csv(in);
}

/// Serialize `trace` to `path` as CSV or binary.
void save_trace(const std::string& path, const Trace& trace, bool binary) {
  write_file(path, [&](std::ostream& out) {
    if (binary) {
      write_trace_bin(out, trace);
    } else {
      write_trace_csv(out, trace);
    }
  });
}

/// Common flag set shared by run/certify/trace: campaign selection plus an
/// optional backend override.
struct CampaignArgs {
  std::string campaign;  ///< builtin name
  std::string spec;      ///< path to a spec file
  /// --backend override (simulate | cost | record | analytic | distributed)
  std::string backend;
  std::string transport;     ///< --transport override (fork | tcp)
  std::string dist_workers;  ///< --dist-workers override (raw flag value)
};

[[nodiscard]] CampaignSpec resolve_campaign(const CampaignArgs& args) {
  CampaignSpec spec;
  if (!args.spec.empty()) {
    spec = parse_campaign_spec(read_file(args.spec));
  } else if (!args.campaign.empty()) {
    spec = builtin_campaign(args.campaign);
  } else {
    throw std::invalid_argument("no campaign selected: pass --campaign NAME "
                                "or --spec FILE");
  }
  if (!args.transport.empty()) {
    spec.dist.transport = dist::transport_from_string(args.transport);
  }
  if (!args.dist_workers.empty()) {
    const std::uint64_t workers =
        parse_u64_flag("--dist-workers", args.dist_workers);
    if (workers > 1024) {
      throw std::invalid_argument(
          "--dist-workers: out of range [0, 1024] (0 = auto)");
    }
    spec.dist.workers = static_cast<unsigned>(workers);
  }
  if (!args.backend.empty()) {
    // Comma-separated override, e.g. --backend simulate,cost — running
    // several backends in ONE document lets `nobl check` enforce the
    // cross-backend bit-identity rule on the result.
    spec.backends.clear();
    std::string::size_type start = 0;
    while (start <= args.backend.size()) {
      const auto comma = args.backend.find(',', start);
      const std::string name = args.backend.substr(
          start, (comma == std::string::npos ? args.backend.size() : comma) -
                     start);
      if (name.empty()) {
        throw std::invalid_argument("--backend: empty entry in \"" +
                                    args.backend + "\"");
      }
      spec.backends.push_back(backend_from_string(name));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  return spec;
}

void print_run_help() {
  std::cout <<
      R"(nobl run — execute a campaign and emit its results.

Usage:
  nobl run --campaign NAME [options]     run a builtin campaign
  nobl run --spec FILE [options]         run a campaign spec file

Options:
  --json FILE     write the schema-versioned result JSON to FILE ("-" = stdout)
  --text          print human-readable tables (default unless --json is given)
  --backend B     override the campaign's backend matrix with B, a comma-
                  separated subset of: simulate (the full M(v) machine),
                  cost (degree accounting only — no payloads, no delivery,
                  no inboxes), record (capture + replay the communication
                  schedule), analytic (closed-form trace synthesis for
                  kernels with exact formulas, cost for every other
                  kernel), distributed (real forked worker processes,
                  one per VP cluster, merged over a fork or loopback-TCP
                  channel — attaches a measured wall-clock column per
                  superstep, docs/DISTRIBUTED.md). Traces are
                  backend-invariant — running e.g.
                  --backend simulate,cost,analytic makes `nobl check`
                  enforce that bit-identity inside the one result document
  --transport T   distributed backend only: the worker channel, fork
                  (socketpairs opened before fork, default) | tcp
                  (loopback TCP)
  --dist-workers N  distributed backend only: worker processes (0 = auto,
                  default; rounded down to a power of two <= v)
  --thresholds F  after the run, gate the results on the thresholds file F
                  (exit 1 on any violation) — the one-shot form of the CI
                  `nobl run` + `nobl check` pair
  --quiet         suppress per-run progress lines on stderr
  --help          this text

Builtin campaigns: ci-smoke, golden, bench, conformance (see `nobl list`).

Examples:
  nobl run --campaign ci-smoke --json out.json
  nobl run --campaign ci-smoke --backend cost --json out.json
  nobl run --campaign ci-smoke --json out.json --thresholds bench/thresholds/ci-smoke.json
  nobl run --spec nightly.campaign --text
)";
}

int cmd_run(const std::vector<std::string>& args) {
  CampaignArgs campaign_args;
  std::string json_path;
  std::string thresholds_path;
  bool text = false;
  bool quiet = false;
  const std::optional<int> early = parse_flags(
      "run", args, print_run_help,
      [&](const std::string& flag, const std::string& value) {
        if (flag == "--campaign") campaign_args.campaign = value;
        if (flag == "--spec") campaign_args.spec = value;
        if (flag == "--backend") campaign_args.backend = value;
        if (flag == "--transport") campaign_args.transport = value;
        if (flag == "--dist-workers") campaign_args.dist_workers = value;
        if (flag == "--json") json_path = value;
        if (flag == "--thresholds") thresholds_path = value;
        if (flag == "--text") text = true;
        if (flag == "--quiet") quiet = true;
      });
  if (early.has_value()) return *early;

  const CampaignSpec spec = resolve_campaign(campaign_args);
  const CampaignResult result =
      run_campaign(spec, quiet ? nullptr : &std::cerr, nullptr);

  if (!json_path.empty()) {
    if (json_path == "-") {
      write_campaign_json(std::cout, result);
    } else {
      write_file(json_path, [&](std::ostream& out) {
        write_campaign_json(out, result);
      });
    }
  }
  if (text || json_path.empty()) print_campaign_text(std::cout, result);

  if (!thresholds_path.empty()) {
    std::ostringstream rendered;
    write_campaign_json(rendered, result);
    const JsonValue results = JsonValue::parse(rendered.str());
    const JsonValue thresholds = JsonValue::parse(read_file(thresholds_path));
    const std::vector<std::string> violations =
        check_thresholds(results, thresholds);
    for (const auto& v : violations) std::cerr << "THRESHOLD: " << v << "\n";
    if (!violations.empty()) return 1;
    std::cerr << "nobl: thresholds OK (" << thresholds_path << ")\n";
  }
  return 0;
}

void print_certify_help() {
  std::cout <<
      R"(nobl certify — wiseness/optimality verdicts for a campaign.

For every (algorithm, n, engine) run: measured wiseness alpha (Def. 3.2),
fullness gamma (Def. 5.2), beta = min LB/H over folds and the sigma grid,
the Theorem 3.4 D-BSP guarantee alpha*beta/(1+alpha), and whether Lemma 3.1's
folding inequality holds at every fold.

Usage:
  nobl certify --campaign NAME [--json FILE]
  nobl certify --spec FILE [--json FILE]

Options:
  --json FILE   also write the full result document ("-" = stdout)
  --backend B   certify under one backend: simulate | cost | record |
                analytic | distributed. Verdicts are pure trace queries,
                so cost and analytic (closed forms for the exact kernels,
                cost for the rest) are the fast choices; distributed
                certifies the merged trace of real worker processes (and
                attaches measured wall clock to --json)
  --transport T    distributed backend only: fork (default) | tcp
  --dist-workers N distributed backend only: worker processes (0 = auto)
  --quiet       suppress progress lines on stderr
  --help        this text
)";
}

int cmd_certify(const std::vector<std::string>& args) {
  CampaignArgs campaign_args;
  std::string json_path;
  bool quiet = false;
  const std::optional<int> early = parse_flags(
      "certify", args, print_certify_help,
      [&](const std::string& flag, const std::string& value) {
        if (flag == "--campaign") campaign_args.campaign = value;
        if (flag == "--spec") campaign_args.spec = value;
        if (flag == "--backend") campaign_args.backend = value;
        if (flag == "--transport") campaign_args.transport = value;
        if (flag == "--dist-workers") campaign_args.dist_workers = value;
        if (flag == "--json") json_path = value;
        if (flag == "--quiet") quiet = true;
      });
  if (early.has_value()) return *early;

  const CampaignSpec spec = resolve_campaign(campaign_args);
  // The Lemma 3.1 column is the one verdict that is not in RunResult, so it
  // is taken from each trace while the runner still holds it.
  std::vector<bool> folding_holds;
  const CampaignResult result = run_campaign(
      spec, quiet ? nullptr : &std::cerr,
      [&folding_holds](const RunResult& run, const Trace& trace) {
        bool folding = true;
        for (unsigned log_p = 1; log_p <= run.log_v; ++log_p) {
          folding = folding && folding_inequality_holds(trace, log_p);
        }
        folding_holds.push_back(folding);
      });

  Table verdicts("certification per run (Thm 3.4 at the top swept fold)",
                 {"algorithm", "n", "engine", "backend", "alpha", "gamma",
                  "beta_min", "guarantee", "folding (L3.1)"});
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const RunResult& run = result.runs[i];
    const bool folding = folding_holds[i];
    verdicts.row()
        .add(run.algorithm)
        .add(run.n)
        .add(run.engine)
        .add(run.backend)
        .add(run.certification.alpha)
        .add(run.certification.gamma)
        .add(run.certification.beta_min)
        .add(run.certification.guarantee())
        .add(folding ? "holds" : "VIOLATED");
  }
  std::cout << verdicts;

  if (!json_path.empty()) {
    if (json_path == "-") {
      write_campaign_json(std::cout, result);
    } else {
      write_file(json_path, [&](std::ostream& out) {
        write_campaign_json(out, result);
      });
    }
  }
  return 0;
}

void print_trace_help() {
  std::cout <<
      R"(nobl trace — export, inspect, or replay recorded traces.

Two trace formats, carrying identical information (docs/SCHEMAS.md):
  csv   human surface: header `log_v,<k>`, then one
        `label,messages,degree_0..degree_logv` line per superstep
  bin   binary columnar blocks (bsp/trace_store.hpp): delta+varint degree
        columns with per-block checksums, extension .nbt

--inspect and --replay sniff the format from the file's magic bytes, so
either format can be passed anywhere a trace file is expected.

Usage:
  nobl trace --export DIR (--campaign NAME | --spec FILE) [--format F]
        run the campaign (first engine) and write one trace per unique
        (algorithm, n) into DIR, named <algorithm>_n<N>.csv (or .nbt with
        --format bin) — traces are engine-invariant, so one file pins
        every engine
  nobl trace --inspect FILE
        print the trace's shape and its per-label superstep census
  nobl trace --replay FILE [--algorithm NAME --n N]
        recompute H/alpha/gamma per fold from the stored degrees; with an
        algorithm named, also re-certify against its closed forms

Options:
  --format F  export format: csv (default) | bin
  --quiet     suppress progress lines on stderr
  --help      this text
)";
}

int cmd_trace(const std::vector<std::string>& args) {
  CampaignArgs campaign_args;
  std::string export_dir;
  std::string inspect_path;
  std::string replay_path;
  std::string algorithm;
  std::string format = "csv";
  std::uint64_t n = 0;
  bool quiet = false;
  const std::optional<int> early = parse_flags(
      "trace", args, print_trace_help,
      [&](const std::string& flag, const std::string& value) {
        if (flag == "--export") export_dir = value;
        if (flag == "--format") format = value;
        if (flag == "--inspect") inspect_path = value;
        if (flag == "--replay") replay_path = value;
        if (flag == "--campaign") campaign_args.campaign = value;
        if (flag == "--spec") campaign_args.spec = value;
        if (flag == "--algorithm") algorithm = value;
        if (flag == "--n") n = parse_u64_flag("--n", value);
        if (flag == "--quiet") quiet = true;
      });
  if (early.has_value()) return *early;
  if (format != "csv" && format != "bin") {
    return usage_error("--format must be csv or bin, got \"" + format + "\"",
                       "trace");
  }

  if (!export_dir.empty()) {
    CampaignSpec spec = resolve_campaign(campaign_args);
    // Traces are engine- and backend-invariant: one (engine, backend) cell
    // pins every other.
    spec.engines = {spec.engines.front()};
    spec.backends = {spec.backends.front()};
    std::error_code ec;
    std::filesystem::create_directories(export_dir, ec);
    if (ec) throw std::invalid_argument("cannot write \"" + export_dir + "\"");
    const bool binary = format == "bin";
    // Each file is written while the runner still holds its trace.
    (void)run_campaign(
        spec, quiet ? nullptr : &std::cerr,
        [&](const RunResult& run, const Trace& trace) {
          const std::filesystem::path path =
              std::filesystem::path(export_dir) /
              (run.algorithm + "_n" + std::to_string(run.n) +
               (binary ? kTraceBinExtension : ".csv"));
          save_trace(path.string(), trace, binary);
          // One write, so that it never splits a lane's progress line.
          if (!quiet) std::cerr << ("nobl: wrote " + path.string() + "\n");
        });
    return 0;
  }

  if (!inspect_path.empty()) {
    const Trace trace = load_trace_any(inspect_path);
    std::cout << "trace: " << inspect_path << "\n  log_v = " << trace.log_v()
              << " (v = " << trace.v() << ")\n  supersteps = "
              << trace.supersteps() << "\n  messages = "
              << trace.total_messages() << "\n";
    const AlgoRun run{0, trace};
    std::cout << superstep_census("superstep census by label", run);
    return 0;
  }

  if (!replay_path.empty()) {
    const Trace trace = load_trace_any(replay_path);
    Table t("replayed metrics per fold",
            {"p", "H (sigma=0)", "alpha", "gamma"});
    for (const std::uint64_t p : pow2_range(trace.v())) {
      const unsigned log_p = log2_exact(p);
      t.row()
          .add(p)
          .add(communication_complexity(trace, log_p, 0))
          .add(wiseness_alpha(trace, log_p))
          .add(fullness_gamma(trace, log_p));
    }
    std::cout << t;
    if (!algorithm.empty()) {
      if (n == 0) {
        return usage_error("--replay with --algorithm also needs --n", "trace");
      }
      const AlgoEntry& entry = AlgoRegistry::instance().at(algorithm);
      Table vs("replayed H vs " + entry.name + " closed forms (sigma=0)",
               {"p", "H", "predicted", "meas/pred", "lower bound", "meas/LB"});
      for (const std::uint64_t p : pow2_range(trace.v())) {
        const unsigned log_p = log2_exact(p);
        const double h = communication_complexity(trace, log_p, 0);
        const double pred = entry.predicted(n, p, 0);
        const double lower = entry.lower_bound(n, p, 0);
        vs.row()
            .add(p)
            .add(h)
            .add(pred)
            .add(pred > 0 ? h / pred : 0.0)
            .add(lower)
            .add(lower > 0 ? h / lower : 0.0);
      }
      std::cout << vs;
    }
    return 0;
  }

  return usage_error("pass one of --export, --inspect, --replay", "trace");
}

void print_convert_help() {
  std::cout <<
      R"(nobl convert — translate a trace between the CSV and binary formats.

The input format is sniffed from the file's magic bytes; the output format
follows the output extension (.nbt = binary columnar blocks, anything else
= CSV) unless --to overrides it. Converting csv -> bin -> csv is
byte-identical (pinned by the trace_io round-trip tests).

Usage:
  nobl convert INPUT OUTPUT [--to F]

Options:
  --to F    force the output format: csv | bin (default: by extension)
  --help    this text

Examples:
  nobl convert tests/golden/fft_n64.nbt /tmp/fft_n64.csv
  nobl convert big.nbt - --to csv        ("-" writes CSV to stdout)
)";
}

int cmd_convert(const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  std::string to;
  const std::optional<int> early = parse_flags(
      "convert", args, print_convert_help,
      [&](const std::string& flag, const std::string& value) {
        if (flag == "--to") to = value;
      },
      [&](const std::string& positional) { paths.push_back(positional); });
  if (early.has_value()) return *early;
  if (!to.empty() && to != "csv" && to != "bin") {
    return usage_error("--to must be csv or bin, got \"" + to + "\"",
                       "convert");
  }
  if (paths.size() != 2) {
    return usage_error("convert needs exactly INPUT and OUTPUT", "convert");
  }
  const std::string& input = paths[0];
  const std::string& output = paths[1];

  const Trace trace = load_trace_any(input);
  const bool binary =
      to.empty() ? std::filesystem::path(output).extension() ==
                       kTraceBinExtension
                 : to == "bin";
  if (output == "-") {
    if (binary) {
      return usage_error("refusing to write binary to stdout (pass a path "
                         "or --to csv)",
                         "convert");
    }
    write_trace_csv(std::cout, trace);
    return 0;
  }
  save_trace(output, trace, binary);
  std::cerr << "nobl: wrote " << output << " (" << (binary ? "bin" : "csv")
            << ", " << trace.supersteps() << " supersteps)\n";
  return 0;
}

void print_list_help() {
  std::cout <<
      R"(nobl list — enumerate registered algorithms and builtin campaigns.

Usage:
  nobl list [--json]

Options:
  --json    machine-readable listing on stdout (name, source, size_rule,
            pattern, formula, header, exact_h, input_independent, sweeps,
            max_sweep_size, supported backends per algorithm, plus the
            builtin campaign names) — the input of scripts/gen_kernels_md.py
  --help    this text
)";
}

int cmd_list(const std::vector<std::string>& args) {
  bool json = false;
  const std::optional<int> early = parse_flags(
      "list", args, print_list_help,
      [&](const std::string& flag, const std::string&) {
        if (flag == "--json") json = true;
      });
  if (early.has_value()) return *early;

  if (json) {
    write_registry_json(std::cout);
    return 0;
  }

  const auto& entries = AlgoRegistry::instance().entries();
  Table t("registered network-oblivious algorithms",
          {"name", "source", "sizes (smoke)", "summary"});
  for (const AlgoEntry& entry : entries) {
    std::string sizes;
    for (const auto size : entry.smoke_sizes) {
      if (!sizes.empty()) sizes += ",";
      sizes += std::to_string(size);
    }
    t.row().add(entry.name).add(entry.source).add(sizes).add(entry.summary);
  }
  std::cout << t;
  std::cout << "builtin campaigns:";
  for (const auto& name : builtin_campaign_names()) std::cout << " " << name;
  std::cout << "\n";
  return 0;
}

void print_check_help() {
  std::cout <<
      R"(nobl check — validate a result document, optionally gate on thresholds.

Validation covers the schema (version, required keys, cell shape) and the
cross-engine/cross-backend conformance rule: runs of the same (algorithm, n)
must report identical H cells under every engine and every backend. With
--thresholds, optimality ratios and certification minima are enforced on top
(the CI regression gate).

With --golden DIR, `nobl check` instead replays the golden campaign against
the archived .nbt trace fixtures in DIR: for every (algorithm, n) sweep,
every backend the kernel supports (simulate / cost / record / analytic /
distributed) must reproduce the golden H surface bit-for-bit at every fold
and σ. --transport selects the distributed backend's worker channel for
those replays.

With --serve-stats, `nobl check` instead validates a `nobl serve --stats`
document (schema + every promised metrics field) and, with
--serve-thresholds, gates it on hit-rate / latency / queue bounds — the CI
serve job's acceptance gate (see bench/thresholds/serve-smoke.json).

Usage:
  nobl check --results FILE [--thresholds FILE]
  nobl check --golden DIR
  nobl check --serve-stats FILE [--serve-thresholds FILE]

Options:
  --results FILE           result JSON produced by `nobl run --json` (also
                           accepted: the aggregated document written by
                           `nobl serve --campaign ... --json`)
  --thresholds FILE        thresholds document (see bench/thresholds/)
  --golden DIR             replay the .nbt golden traces, all backends
  --transport T            with --golden: run the distributed-backend
                           replays over T, fork (default) | tcp
  --serve-stats FILE       stats document from `nobl serve --stats`
  --serve-thresholds FILE  bounds for the stats document: min_hit_rate,
                           min_memory_hits, min_disk_hits, max_executed,
                           min_cells_total, max_p50_ms, max_p99_ms,
                           max_rejected, min_requests (unknown keys are
                           violations)
  --help                   this text

Exit code 0 = valid (and within thresholds), 1 = violations (one per line
on stderr).
)";
}

/// `nobl check --golden DIR`: certify the archived `.nbt` fixtures. Each
/// supported backend's live run must reproduce the golden H cells
/// bit-identically (the acceptance gate CI runs against tests/golden/).
int check_golden(const std::string& dir, const std::string& transport) {
  std::vector<std::string> violations;
  const CampaignSpec spec = builtin_campaign("golden");
  dist::DistConfig dist;
  if (!transport.empty()) {
    dist.transport = dist::transport_from_string(transport);
  }
  for (const AlgoSweep& sweep : spec.sweeps) {
    const AlgoEntry& entry = AlgoRegistry::instance().at(sweep.algorithm);
    for (const std::uint64_t n : sweep.sizes) {
      const std::string stem =
          dir + "/" + sweep.algorithm + "_n" + std::to_string(n);
      const std::string where =
          sweep.algorithm + " n=" + std::to_string(n);
      Trace golden;
      try {
        golden = load_trace_any(stem + kTraceBinExtension);
      } catch (const std::exception& e) {
        violations.push_back(where + ": " + e.what());
        continue;
      }
      for (const BackendKind backend : all_backend_kinds()) {
        if (!entry.supports(backend)) continue;
        RunOptions options{ExecutionPolicy::sequential(), backend};
        options.dist = dist;
        const Trace live = entry.runner(n, options);
        for (const std::uint64_t p : pow2_range(golden.v())) {
          const unsigned log_p = log2_exact(p);
          for (const double sigma : sigma_grid(n, p)) {
            const double want = communication_complexity(golden, log_p, sigma);
            const double got = communication_complexity(live, log_p, sigma);
            if (want != got) {
              std::ostringstream what;
              what << where << " [" << to_string(backend) << "] p=" << p
                   << " sigma=" << sigma << ": H drifted from golden (" << got
                   << " != " << want << ")";
              violations.push_back(what.str());
            }
          }
        }
      }
    }
  }
  for (const auto& v : violations) std::cerr << "CHECK: " << v << "\n";
  if (!violations.empty()) return 1;
  std::cout << "nobl check: OK (golden replay: .nbt fixtures, every "
               "backend, "
            << dir << ")\n";
  return 0;
}

int cmd_check(const std::vector<std::string>& args) {
  std::string results_path;
  std::string thresholds_path;
  std::string golden_dir;
  std::string transport;
  std::string serve_stats_path;
  std::string serve_thresholds_path;
  const std::optional<int> early = parse_flags(
      "check", args, print_check_help,
      [&](const std::string& flag, const std::string& value) {
        if (flag == "--results") results_path = value;
        if (flag == "--thresholds") thresholds_path = value;
        if (flag == "--golden") golden_dir = value;
        if (flag == "--transport") transport = value;
        if (flag == "--serve-stats") serve_stats_path = value;
        if (flag == "--serve-thresholds") serve_thresholds_path = value;
      });
  if (early.has_value()) return *early;
  if (!golden_dir.empty()) {
    if (!results_path.empty() || !thresholds_path.empty() ||
        !serve_stats_path.empty()) {
      return usage_error("--golden is exclusive with the other check modes",
                         "check");
    }
    return check_golden(golden_dir, transport);
  }
  if (!transport.empty()) {
    return usage_error("--transport needs --golden DIR", "check");
  }
  if (!serve_stats_path.empty()) {
    if (!results_path.empty() || !thresholds_path.empty()) {
      return usage_error(
          "--serve-stats is exclusive with --results/--thresholds", "check");
    }
    const JsonValue stats = JsonValue::parse(read_file(serve_stats_path));
    const std::vector<std::string> violations =
        serve_thresholds_path.empty()
            ? serve::validate_serve_stats(stats)
            : serve::check_serve_thresholds(
                  stats, JsonValue::parse(read_file(serve_thresholds_path)));
    for (const auto& v : violations) std::cerr << "CHECK: " << v << "\n";
    if (!violations.empty()) return 1;
    std::cout << "nobl check: OK (" << serve_stats_path
              << (serve_thresholds_path.empty() ? ""
                                                : ", serve thresholds applied")
              << ")\n";
    return 0;
  }
  if (!serve_thresholds_path.empty()) {
    return usage_error("--serve-thresholds needs --serve-stats FILE", "check");
  }
  if (results_path.empty()) {
    return usage_error("--results FILE is required", "check");
  }

  const JsonValue results = JsonValue::parse(read_file(results_path));
  std::vector<std::string> violations;
  if (thresholds_path.empty()) {
    violations = validate_campaign_json(results);
  } else {
    const JsonValue thresholds = JsonValue::parse(read_file(thresholds_path));
    violations = check_thresholds(results, thresholds);
  }
  for (const auto& v : violations) std::cerr << "CHECK: " << v << "\n";
  if (!violations.empty()) return 1;
  std::cout << "nobl check: OK (" << results_path
            << (thresholds_path.empty() ? "" : ", thresholds applied") << ")\n";
  return 0;
}

void print_serve_help() {
  std::cout <<
      R"(nobl serve — long-running campaign service over a local socket.

Server mode binds an AF_UNIX socket and answers campaign specs (the exact
grammar of `nobl run --spec`, docs/SCHEMAS.md) with streamed NDJSON result
documents. Identical (kernel, n, backend) cells are served from a two-tier
content-addressed cache: an in-memory LRU in front of a persistent
directory of .nbt traces, so a restarted server answers previously-computed
cells by replaying from disk instead of re-executing any kernel. Admission
control refuses oversized requests (bad_request) and requests that do not
fit the bounded queue (overloaded, retryable) instead of hanging clients.
Full operator guide: docs/SERVE.md.

Usage:
  nobl serve --socket PATH [server options]        run the server (blocks
                                                   until a client sends the
                                                   shutdown directive)
  nobl serve --socket PATH --campaign NAME         submit a builtin campaign
  nobl serve --socket PATH --spec FILE             submit a spec file
  nobl serve --socket PATH --stats                 fetch the stats document
  nobl serve --socket PATH --ping                  liveness probe
  nobl serve --socket PATH --shutdown              stop the server

Server options:
  --cache-dir DIR      persistent .nbt cache directory (created if missing;
                       omit for a memory-only cache)
  --workers N          worker threads executing cells (default 4)
  --queue N            bounded queue capacity in cells (default 256)
  --memory-entries N   in-memory LRU capacity in traces (default 64)

Client options:
  --campaign NAME      builtin campaign to submit (see `nobl list`)
  --spec FILE          campaign spec file to submit
  --backend B          override the campaign's backend matrix (as `nobl run`)
  --json FILE          write the aggregated result document (--campaign/
                       --spec) or the raw stats document (--stats) to FILE
                       ("-" = stdout); submissions default to stdout
  --help               this text

Client exit codes: 0 success, 1 retryable server error (overloaded /
unavailable) or failed stats validation, 2 bad request.

Example session:
  nobl serve --socket /tmp/nobl.sock --cache-dir /tmp/nobl-cache &
  nobl serve --socket /tmp/nobl.sock --campaign ci-smoke --json out.json
  nobl serve --socket /tmp/nobl.sock --stats --json stats.json
  nobl check --serve-stats stats.json
  nobl serve --socket /tmp/nobl.sock --shutdown
)";
}

int cmd_serve(const std::vector<std::string>& args) {
  std::string socket_path;
  std::string cache_dir;
  std::string json_path;
  CampaignArgs campaign_args;
  unsigned workers = 4;
  std::uint64_t queue = 256;
  std::uint64_t memory_entries = 64;
  bool stats = false;
  bool ping = false;
  bool shutdown = false;
  const std::optional<int> early = parse_flags(
      "serve", args, print_serve_help,
      [&](const std::string& flag, const std::string& value) {
        if (flag == "--socket") socket_path = value;
        if (flag == "--cache-dir") cache_dir = value;
        if (flag == "--workers") {
          const std::uint64_t parsed = parse_u64_flag("--workers", value);
          if (parsed > 1024) {
            throw std::invalid_argument("--workers: out of range [0, 1024]");
          }
          workers = static_cast<unsigned>(parsed);
        }
        if (flag == "--queue") queue = parse_u64_flag("--queue", value);
        if (flag == "--memory-entries") {
          memory_entries = parse_u64_flag("--memory-entries", value);
        }
        if (flag == "--campaign") campaign_args.campaign = value;
        if (flag == "--spec") campaign_args.spec = value;
        if (flag == "--backend") campaign_args.backend = value;
        if (flag == "--json") json_path = value;
        if (flag == "--stats") stats = true;
        if (flag == "--ping") ping = true;
        if (flag == "--shutdown") shutdown = true;
      });
  if (early.has_value()) return *early;
  if (socket_path.empty()) {
    return usage_error("--socket PATH is required", "serve");
  }
  const bool submit =
      !campaign_args.campaign.empty() || !campaign_args.spec.empty();
  const int modes = static_cast<int>(stats) + static_cast<int>(ping) +
                    static_cast<int>(shutdown) + static_cast<int>(submit);
  if (modes > 1) {
    return usage_error(
        "pick one of --campaign/--spec, --stats, --ping, --shutdown",
        "serve");
  }

  const auto write_doc = [&](const std::string& doc) {
    if (json_path.empty() || json_path == "-") {
      std::cout << doc;
      return;
    }
    write_file(json_path, [&](std::ostream& out) { out << doc; });
  };

  if (ping) {
    serve::ServeClient client(socket_path);
    client.send_line(serve::kDirectivePing);
    const std::optional<std::string> line = client.read_line();
    if (!line.has_value()) {
      std::cerr << "nobl serve: no response from " << socket_path << "\n";
      return 1;
    }
    std::cout << *line << "\n";
    return 0;
  }
  if (shutdown) {
    serve::ServeClient client(socket_path);
    client.send_line(serve::kDirectiveShutdown);
    const std::optional<std::string> line = client.read_line();
    if (!line.has_value()) {
      std::cerr << "nobl serve: no response from " << socket_path << "\n";
      return 1;
    }
    std::cerr << "nobl serve: server on " << socket_path << " shutting down\n";
    return 0;
  }
  if (stats) {
    serve::ServeClient client(socket_path);
    client.send_line(serve::kDirectiveStats);
    const std::optional<std::string> line = client.read_line();
    if (!line.has_value()) {
      std::cerr << "nobl serve: no response from " << socket_path << "\n";
      return 1;
    }
    const std::vector<std::string> violations =
        serve::validate_serve_stats(JsonValue::parse(*line));
    for (const auto& v : violations) std::cerr << "CHECK: " << v << "\n";
    if (!violations.empty()) return 1;
    write_doc(*line + "\n");
    return 0;
  }
  if (submit) {
    const CampaignSpec spec = resolve_campaign(campaign_args);
    serve::ServeClient client(socket_path);
    const serve::ClientReport report = serve::submit_campaign(client, spec);
    if (!report.ok) {
      std::cerr << "nobl serve: " << report.error_code << ": "
                << report.error_message
                << (report.retryable ? " (retryable)" : "") << "\n";
      return report.error_code == "bad_request" ? 2 : 1;
    }
    std::cerr << "nobl serve: " << report.runs << " cells in "
              << report.elapsed_ms << " ms (memory " << report.tier_memory
              << ", disk " << report.tier_disk << ", executed "
              << report.tier_executed << ", coalesced "
              << report.tier_coalesced << ")\n";
    write_doc(report.results_json);
    return 0;
  }

  // Server mode.
  serve::SocketServerOptions options;
  options.config.cache_dir = cache_dir;
  options.config.workers = workers == 0 ? 1 : workers;
  options.config.max_queue = queue;
  options.config.memory_entries = memory_entries;
  options.socket_path = socket_path;
  options.log = &std::cerr;
  serve::run_serve_socket(options);
  return 0;
}

void print_audit_help() {
  std::cout <<
      R"(nobl audit — static obliviousness verifier over the program IR.

Runs two non-executing passes per kernel (docs/AUDIT.md):

  1. taint classification: the kernel's program template is instantiated
     with tracked payloads and driven by the audit backend; input influence
     on destinations, dummy counts, or control flow marks the superstep
     data-dependent. The verdict is cross-checked against the registry's
     input_independent annotation.
  2. schedule lint: the recorded schedule is checked against the D-BSP
     structural invariants (cluster containment per label, dummy-traffic
     discipline, degree structure) and the registry's predict::/lb::
     formulas.

Exit codes: 0 all kernels pass, 1 any mismatch or lint finding, 2 usage.

Usage:
  nobl audit [--kernel NAME] [--n SIZE] [--json] [--quiet]

Options:
  --kernel NAME  audit only the named kernel (default: all)
  --n SIZE       audit size (registry size semantics; requires --kernel;
                 default: the kernel's first smoke size)
  --json         machine-readable report on stdout
  --quiet        suppress the text table; exit status only
  --help         this text
)";
}

void write_audit_json(std::ostream& os,
                      const std::vector<audit::KernelVerdict>& verdicts) {
  JsonWriter w(os);
  w.begin_object();
  w.key("schema_version").value(kResultSchemaVersion);
  bool all_passed = true;
  for (const audit::KernelVerdict& verdict : verdicts) {
    all_passed = all_passed && verdict.passed();
  }
  w.key("passed").value(all_passed);
  w.key("kernels").begin_array();
  for (const audit::KernelVerdict& verdict : verdicts) {
    w.begin_object();
    w.key("name").value(verdict.name);
    w.key("n").value(verdict.n);
    w.key("oblivious").value(!verdict.data_dependent);
    w.key("registry_input_independent")
        .value(verdict.registry_input_independent);
    w.key("matches_registry").value(verdict.matches_registry);
    w.key("tainted_destinations").value(verdict.report.tainted_destinations());
    w.key("tainted_counts").value(verdict.report.tainted_counts());
    w.key("declassifications").value(verdict.report.declassifications());
    w.key("supersteps").value(
        static_cast<std::uint64_t>(verdict.report.steps.size()));
    w.key("flagged_steps").begin_array();
    for (const std::size_t step : verdict.report.flagged_steps()) {
      w.value(static_cast<std::uint64_t>(step));
    }
    w.end_array();
    w.key("lint").begin_array();
    for (const audit::LintIssue& issue : verdict.lint.issues) {
      w.begin_object();
      w.key("rule").value(issue.rule);
      w.key("detail").value(issue.detail);
      w.end_object();
    }
    w.end_array();
    w.key("passed").value(verdict.passed());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

int cmd_audit(const std::vector<std::string>& args) {
  bool json = false;
  bool quiet = false;
  std::string kernel;
  std::uint64_t n = 0;
  const std::optional<int> early = parse_flags(
      "audit", args, print_audit_help,
      [&](const std::string& flag, const std::string& value) {
        if (flag == "--json") json = true;
        if (flag == "--quiet") quiet = true;
        if (flag == "--kernel") kernel = value;
        if (flag == "--n") n = parse_u64_flag("--n", value);
      });
  if (early.has_value()) return *early;
  if (n != 0 && kernel.empty()) {
    return usage_error("--n requires --kernel", "audit");
  }

  std::vector<audit::KernelVerdict> verdicts;
  if (kernel.empty()) {
    verdicts = audit::audit_registry();
  } else {
    verdicts.push_back(
        audit::audit_kernel(AlgoRegistry::instance().at(kernel), n));
  }

  bool all_passed = true;
  for (const audit::KernelVerdict& verdict : verdicts) {
    all_passed = all_passed && verdict.passed();
  }

  if (json) {
    write_audit_json(std::cout, verdicts);
  } else if (!quiet) {
    Table t("static obliviousness audit",
            {"kernel", "n", "verdict", "registry", "events", "lint"});
    for (const audit::KernelVerdict& verdict : verdicts) {
      const std::string events =
          std::to_string(verdict.report.tainted_destinations()) + " dst, " +
          std::to_string(verdict.report.tainted_counts()) + " cnt, " +
          std::to_string(verdict.report.declassifications()) + " decl";
      t.row()
          .add(verdict.name)
          .add(std::to_string(verdict.n))
          .add(verdict.data_dependent ? "data-dependent" : "oblivious")
          .add(verdict.matches_registry
                   ? (verdict.registry_input_independent ? "agrees (indep)"
                                                         : "agrees (dep)")
                   : "MISMATCH")
          .add(events)
          .add(verdict.lint.clean()
                   ? "clean"
                   : verdict.lint.issues.front().rule + " (+" +
                         std::to_string(verdict.lint.issues.size() - 1) + ")");
    }
    std::cout << t;
    std::cout << (all_passed ? "audit: all kernels pass\n"
                             : "audit: FAILED\n");
    if (!all_passed) {
      for (const audit::KernelVerdict& verdict : verdicts) {
        for (const audit::LintIssue& issue : verdict.lint.issues) {
          std::cout << "  " << verdict.name << ": " << issue.rule << ": "
                    << issue.detail << "\n";
        }
        if (!verdict.matches_registry) {
          std::cout << "  " << verdict.name
                    << ": verdict disagrees with registry annotation "
                       "(input_independent = "
                    << (verdict.registry_input_independent ? "true" : "false")
                    << ", audited "
                    << (verdict.data_dependent ? "data-dependent"
                                               : "oblivious")
                    << ")\n";
        }
      }
    }
  }
  return all_passed ? 0 : 1;
}

void print_main_help() {
  std::cout <<
      R"(nobl — campaign runner for the network-oblivious algorithm suite.

Usage: nobl <subcommand> [options]

Subcommands:
  run      execute a campaign (algorithms x sizes x backends x engines),
           emit text/JSON
  certify  optimality/wiseness verdicts per Defs. 3.2/5.2 and Theorem 3.4
  trace    export / inspect / replay recorded traces (csv or binary .nbt)
  convert  translate a trace file between the csv and binary formats
  list     enumerate registered algorithms and builtin campaigns
  audit    static obliviousness verifier: taint-classify every kernel's
           program and lint recorded schedules against the D-BSP
           invariants and registry formulas (docs/AUDIT.md)
  check    validate result JSON, replay golden traces (--golden DIR), or
           gate a serve stats document (--serve-stats FILE), optionally
           against a thresholds file
  serve    long-running campaign service over a local socket, with a
           persistent two-tier result cache (docs/SERVE.md)

`nobl <subcommand> --help` documents each one.

The simulation engine matrix is part of the campaign spec (`engines =`);
the NOBL_ENGINE/NOBL_THREADS environment variables are NOT consulted here.
)";
}

int dispatch(int argc, char** argv) {
  if (argc < 2) {
    print_main_help();
    return 2;
  }
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "--help" || command == "help") {
    print_main_help();
    return 0;
  }
  if (command == "run") return cmd_run(args);
  if (command == "certify") return cmd_certify(args);
  if (command == "trace") return cmd_trace(args);
  if (command == "convert") return cmd_convert(args);
  if (command == "list") return cmd_list(args);
  if (command == "audit") return cmd_audit(args);
  if (command == "check") return cmd_check(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "__flags") return cmd_flags_dump();
  return usage_error("unknown subcommand \"" + command + "\"", "--help");
}

}  // namespace
}  // namespace nobl

int main(int argc, char** argv) {
  try {
    return nobl::dispatch(argc, argv);
  } catch (const std::invalid_argument& e) {
    // Bad invocations (unknown campaign, malformed spec, missing value,
    // unreadable file) exit 2 so CI can tell them apart from a real failed
    // check, which exits 1.
    std::cerr << "nobl: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "nobl: " << e.what() << "\n";
    return 1;
  }
}

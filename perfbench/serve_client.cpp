// Closed-loop serve client of the traced run's serve probe: one connection
// to a running `nobl serve`, one query in flight at a time.
//
//   perfbench_client --socket PATH --cells FILE
//
// Set-up: connect (retrying until the server answers ping), prefill the
// working set (every cell once, so it reaches the disk tier), build the
// byte-exact reference run document of every cell in-process, then send
// kServeWarmup untimed warm-up queries. It then sends kServeQueries measured
// Zipf-ranked single-cell queries (common.hpp). Every served run document
// must equal its reference byte for byte. The last stdout line is one JSON
// object of counts, tier counts and median server and socket times.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/campaign.hpp"
#include "common.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string socket;
  std::string cells;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--socket") {
      args.socket = value;
    } else if (flag == "--cells") {
      args.cells = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.socket.empty() || args.cells.empty()) {
    throw std::invalid_argument("--socket and --cells are required");
  }
  return args;
}

/// Connect once the server answers ping; gives up after 30 s.
std::unique_ptr<nobl::serve::ServeClient> connect(const std::string& path) {
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (true) {
    try {
      auto client = std::make_unique<nobl::serve::ServeClient>(path);
      client->send_line(nobl::serve::kDirectivePing);
      const std::optional<std::string> pong = client->read_line();
      if (pong.has_value() &&
          nobl::serve::raw_member(*pong, "type") == "\"pong\"") {
        return client;
      }
    } catch (const std::invalid_argument&) {
      // socket not bound yet
    }
    if (Clock::now() > deadline) {
      throw std::runtime_error("server on " + path + " never answered ping");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// What one query produced.
struct Answer {
  bool ok = false;
  double latency_ms = 0.0;
  double server_ms = 0.0;
  int tier = -1;  ///< 0 memory, 1 disk, 2 executed, 3 coalesced
};

Answer query(nobl::serve::ServeClient& client, const perfbench::Cell& cell,
             const std::string* reference) {
  Answer answer;
  std::string run;
  bool error = false;
  const auto start = Clock::now();
  client.send_spec(perfbench::query_spec(cell));
  while (true) {
    const std::optional<std::string> line = client.read_line();
    if (!line.has_value()) throw std::runtime_error("server closed the socket");
    const std::string type = nobl::serve::raw_member(*line, "type");
    if (type == "\"run\"") {
      run = nobl::serve::raw_member(*line, "run");
    } else if (type == "\"error\"") {
      error = true;
      std::cerr << "perfbench_client: " << *line << "\n";
      break;
    } else if (type == "\"done\"") {
      answer.latency_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      const nobl::JsonValue done = nobl::JsonValue::parse(*line);
      answer.server_ms = done.at("elapsed_ms").as_number();
      const nobl::JsonValue& cache = done.at("cache");
      const char* const tiers[] = {"memory", "disk", "executed", "coalesced"};
      for (int t = 0; t < 4; ++t) {
        if (cache.at(tiers[t]).as_number() == 1.0) answer.tier = t;
      }
      answer.ok = done.at("runs").as_number() == 1.0 && !run.empty() &&
                  (reference == nullptr || run == *reference);
      break;
    }
  }
  if (error) answer.ok = false;
  return answer;
}

std::string reference_doc(const perfbench::Cell& cell) {
  const nobl::CampaignSpec spec =
      nobl::parse_campaign_spec(perfbench::query_spec(cell));
  const nobl::CampaignResult result = nobl::run_campaign(spec);
  if (result.runs.size() != 1) {
    throw std::runtime_error("reference for " + cell.kernel + " is not one run");
  }
  std::ostringstream os;
  nobl::JsonWriter w(os, /*indent=*/0);
  nobl::write_run_json(w, result.runs.front());
  return os.str();
}

int run(const Args& args) {
  const std::vector<perfbench::Cell> cells = perfbench::read_cells(args.cells);
  std::unique_ptr<nobl::serve::ServeClient> client = connect(args.socket);

  std::vector<std::string> references;
  for (const perfbench::Cell& cell : cells) {
    references.push_back(reference_doc(cell));
  }
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ++attempted;
    failed += query(*client, cells[i], &references[i]).ok ? 0 : 1;
  }
  perfbench::ZipfRanks ranks(cells.size(), perfbench::kServeStreamSeed);
  for (std::uint64_t i = 0; i < perfbench::kServeWarmup; ++i) {
    const std::size_t r = ranks.next();
    ++attempted;
    failed += query(*client, cells[r], &references[r]).ok ? 0 : 1;
  }
  std::vector<double> latency;
  std::vector<double> server;
  std::uint64_t tiers[4] = {0, 0, 0, 0};
  std::uint64_t timed_failed = 0;
  while (latency.size() < perfbench::kServeQueries) {
    const std::size_t r = ranks.next();
    const Answer a = query(*client, cells[r], &references[r]);
    latency.push_back(a.latency_ms);
    server.push_back(a.server_ms);
    if (a.tier >= 0) ++tiers[a.tier];
    timed_failed += a.ok ? 0 : 1;
  }
  std::vector<double> socket_ms(latency.size());
  for (std::size_t i = 0; i < latency.size(); ++i) {
    socket_ms[i] = latency[i] - server[i];
  }
  std::printf(
      "{\"attempted\": %llu, \"failed\": %llu, \"queries\": %zu, "
      "\"server_ms_p50\": %.17g, \"socket_ms_p50\": %.17g, "
      "\"memory\": %llu, \"disk\": %llu, \"executed\": %llu, "
      "\"coalesced\": %llu}\n",
      static_cast<unsigned long long>(attempted + latency.size()),
      static_cast<unsigned long long>(failed + timed_failed), latency.size(),
      perfbench::median(server), perfbench::median(socket_ms),
      static_cast<unsigned long long>(tiers[0]),
      static_cast<unsigned long long>(tiers[1]),
      static_cast<unsigned long long>(tiers[2]),
      static_cast<unsigned long long>(tiers[3]));
  return failed + timed_failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_client: " << e.what() << "\n";
    return 2;
  }
}

#include "netd_cmd.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "netd/client.h"
#include "netd/daemon.h"
#include "util/parse.h"

namespace thinair::tools {

namespace {

netd::Daemon* g_daemon = nullptr;

void on_signal(int) {
  if (g_daemon != nullptr) g_daemon->stop();
}

int flag_error(const char* flag, const char* value) {
  std::fprintf(stderr, "%s %s: bad or missing value\n", flag,
               value == nullptr ? "(missing)" : value);
  return 2;
}

}  // namespace

void netd_usage(const char* argv0) {
  std::fprintf(
      stderr,
      "       %s serve [--host H] [--port P] [--loss P] [--seed S]\n"
      "           [--idle-timeout SEC] [--max-sessions K]\n"
      "       %s client --session ID --node N --members M [--host H]\n"
      "           [--port P] [--packets N] [--payload-bytes B] [--rounds R]\n"
      "           [--payload-seed S] [--deadline SEC] [--quiet]\n",
      argv0, argv0);
}

int cmd_serve(int argc, char** argv) {
  netd::DaemonConfig config;
  config.port = 7464;  // "TH" on a phone keypad; --port 0 asks the kernel
  bool port_set = false;
  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    ++i;
    std::uint64_t n = 0;
    if (flag == "--host" && value != nullptr) {
      config.host = value;
    } else if (flag == "--port" && util::parse_u64_in(value ? value : "", 0,
                                                      65535, n)) {
      config.port = static_cast<std::uint16_t>(n);
      port_set = true;
    } else if (flag == "--loss") {
      double p = 0.0;
      if (!util::parse_nonneg_double(value ? value : "", p) || p >= 1.0)
        return flag_error("--loss", value);
      config.hub.loss_p = p;
    } else if (flag == "--seed" && util::parse_u64(value ? value : "", n)) {
      config.hub.seed = n;
    } else if (flag == "--idle-timeout") {
      if (!util::parse_nonneg_double(value ? value : "",
                                     config.hub.idle_timeout_s) ||
          config.hub.idle_timeout_s <= 0.0)
        return flag_error("--idle-timeout", value);
    } else if (flag == "--max-sessions" &&
               util::parse_u64(value ? value : "", n)) {
      config.hub.max_sessions = n;
    } else {
      return flag_error(flag.c_str(), value);
    }
  }
  (void)port_set;

  try {
    netd::Daemon daemon(config);
    g_daemon = &daemon;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    daemon.run([&] {
      // Parse-friendly readiness line (the smoke test greps the port).
      std::printf("thinaird listening on %s:%u (%s)\n", config.host.c_str(),
                  daemon.port(), daemon.using_epoll() ? "epoll" : "poll");
      std::fflush(stdout);
    });
    g_daemon = nullptr;
    const netd::HubStats& s = daemon.hub().stats();
    std::fprintf(stderr,
                 "thinaird: %llu datagrams, %llu relays, %llu sessions opened "
                 "(%llu closed, %llu expired), %llu decode errors\n",
                 static_cast<unsigned long long>(s.datagrams_in.load()),
                 static_cast<unsigned long long>(s.frames_relayed.load()),
                 static_cast<unsigned long long>(s.sessions_opened.load()),
                 static_cast<unsigned long long>(s.sessions_closed.load()),
                 static_cast<unsigned long long>(s.sessions_expired.load()),
                 static_cast<unsigned long long>(s.decode_errors.load()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "thinaird: %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmd_client(int argc, char** argv) {
  netd::ClientConfig config;
  config.port = 7464;
  bool quiet = false;
  bool have_session = false;
  bool have_node = false;
  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quiet") {
      quiet = true;
      continue;
    }
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    ++i;
    std::uint64_t n = 0;
    if (flag == "--host" && value != nullptr) {
      config.host = value;
    } else if (flag == "--port" &&
               util::parse_u64_in(value ? value : "", 1, 65535, n)) {
      config.port = static_cast<std::uint16_t>(n);
    } else if (flag == "--session" && util::parse_u64(value ? value : "", n)) {
      config.node.session_id = n;
      have_session = true;
    } else if (flag == "--node" &&
               util::parse_u64_in(value ? value : "", 0, 31, n)) {
      config.node.node = static_cast<std::uint16_t>(n);
      have_node = true;
    } else if (flag == "--members" &&
               util::parse_u64_in(value ? value : "", 2, 32, n)) {
      config.node.members = static_cast<std::uint16_t>(n);
    } else if (flag == "--packets" &&
               util::parse_u64_in(value ? value : "", 1, 4096, n)) {
      config.node.x_packets_per_round = n;
    } else if (flag == "--payload-bytes" &&
               util::parse_u64_in(value ? value : "", 1, 8192, n)) {
      config.node.payload_bytes = n;
    } else if (flag == "--rounds" && util::parse_u64(value ? value : "", n)) {
      config.node.rounds = n;
    } else if (flag == "--payload-seed" &&
               util::parse_u64(value ? value : "", n)) {
      config.node.payload_seed = n;
    } else if (flag == "--deadline") {
      if (!util::parse_nonneg_double(value ? value : "", config.deadline_s) ||
          config.deadline_s <= 0.0)
        return flag_error("--deadline", value);
    } else {
      return flag_error(flag.c_str(), value);
    }
  }
  if (!have_session || !have_node) {
    std::fprintf(stderr, "client: --session and --node are required\n");
    return 2;
  }
  // Distinct default payload streams per node: every terminal plays Alice
  // in some round, and two Alices sharing a stream would correlate rounds.
  if (config.node.payload_seed == netd::NodeConfig{}.payload_seed)
    config.node.payload_seed ^= 0x9E3779B97F4A7C15ULL * (config.node.node + 1);

  netd::ClientResult result;
  try {
    result = netd::run_client(config);
  } catch (const std::exception& e) {  // socket setup/teardown errors
    std::fprintf(stderr, "client: %s\n", e.what());
    return 1;
  }
  if (!result.ok) {
    std::fprintf(stderr, "client: %s\n", result.error.c_str());
    return 1;
  }
  if (!quiet)
    std::fprintf(stderr, "client: %zu rounds, %zu secret bytes\n",
                 result.rounds, result.secret.size());
  // The key, hex on stdout — two clients' outputs must diff clean.
  for (const std::uint8_t b : result.secret) std::printf("%02x", b);
  std::printf("\n");
  return 0;
}

}  // namespace thinair::tools

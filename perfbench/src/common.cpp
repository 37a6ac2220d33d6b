#include "common.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "gf/kernels.h"

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kb = 0.0;
    fields >> kb;
    return kb / 1024.0;
  }
  return 0.0;
}

double host_ref_ms() {
  // A dependent multiply/xor chain: no memory traffic, no libm, no
  // allocation — it moves only with how fast this vCPU executes.
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint32_t i = 0; i < 40'000'000; ++i) {
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ULL;
  }
  const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
  if (x == 42) std::fputc(' ', stderr);  // keeps the chain observable
  return ms;
}

std::map<std::string, std::string> host_fingerprint() {
  std::map<std::string, std::string> fp;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) fp["cpu_model"] = line.substr(colon + 2);
    break;
  }
  fp["nproc"] = std::to_string(std::thread::hardware_concurrency());
  fp["gf_kernel"] = thinair::gf::active_kernel().name;
#if defined(__clang__)
  fp["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  fp["compiler"] = std::string("gcc ") + __VERSION__;
#else
  fp["compiler"] = "unknown";
#endif
  return fp;
}

HashingStream::Buf::int_type HashingStream::Buf::overflow(int_type c) {
  if (c != traits_type::eof()) {
    const char ch = traits_type::to_char_type(c);
    sha.update(std::string_view(&ch, 1));
  }
  return traits_type::not_eof(c);
}

std::streamsize HashingStream::Buf::xsputn(const char* s, std::streamsize n) {
  sha.update(std::string_view(s, static_cast<std::size_t>(n)));
  return n;
}

void Report::fail(const std::string& why) {
  correct = false;
  std::cerr << "perfbench: CHECK FAILED: " << why << "\n";
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::print() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    os << sep << json_string(name) << ": " << json_number(value);
    sep = ", ";
  }
  os << "}, \"context\": {";
  sep = "";
  for (const auto& [name, value] : context_text) {
    os << sep << json_string(name) << ": " << json_string(value);
    sep = ", ";
  }
  for (const auto& [name, value] : context_numbers) {
    os << sep << json_string(name) << ": " << json_number(value);
    sep = ", ";
  }
  os << "}}\n";
  std::cout << os.str() << std::flush;
}

SetupProbes::SetupProbes(std::vector<std::string> args)
    : argv_(std::move(args)) {
  argv_.insert(argv_.begin(), "/proc/self/exe");
  argv_.emplace_back("--setup-only");
}

void SetupProbes::catch_up(double measured_s) {
  while (static_cast<double>(samples_.size()) < kProbesPerS * measured_s) {
    std::vector<char*> argv;
    for (std::string& a : argv_) argv.push_back(a.data());
    argv.push_back(nullptr);
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(fds[1]);
    std::string out;
    char buf[512];
    for (ssize_t got; (got = read(fds[0], buf, sizeof buf)) != 0;) {
      if (got < 0 && errno == EINTR) continue;
      if (got < 0) break;
      out.append(buf, static_cast<std::size_t>(got));
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const std::string key = "\"setup_s\": ";
    const std::size_t at = out.find(key);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        at == std::string::npos)
      throw std::runtime_error("set-up probe failed: " + out);
    samples_.push_back(std::strtod(out.c_str() + at + key.size(), nullptr));
  }
}

double SetupProbes::median_with(double own) const {
  std::vector<double> all = samples_;
  all.push_back(own);
  return percentile(all, 0.5);
}

}  // namespace perfbench

#pragma once
// The one writer behind every micro_* bench's BENCH_<name>.json.
//
// A Report builds one JSON object in memory: "bench" ("micro_<name>") and
// a "host" fingerprint first, then the bench's own fields in the order it
// adds them. write() puts the document in BENCH_<name>.json in the working
// directory, or refuses and writes nothing if any number was NaN or
// infinite: JSON cannot carry one, and tools/check_bench.py could not
// load the file.
//
// Layout: the top-level members and the elements of top-level arrays sit
// one per line; everything nested deeper is written inline.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gf/kernels.h"

namespace thinair::bench {

class Report {
 public:
  explicit Report(std::string_view name) : name_(name) {
    open('{');
    text("bench", "micro_" + name_);
    // Informational: which machine the numbers came from. No checker
    // threshold reads it.
    object("host");
    text("cpu_model", cpu_model());
    count("nproc", std::thread::hardware_concurrency());
    text("gf_kernel", gf::active_kernel().name);
    text("compiler", compiler());
    end();
  }

  /// A number with `decimals` digits after the point.
  Report& num(std::string_view key, double value, int decimals = 3) {
    if (!std::isfinite(value) && non_finite_.empty()) non_finite_ = key;
    char buf[512];  // %f of the largest double needs 309 digits
    std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
    return member(key, buf);
  }
  Report& count(std::string_view key, std::uint64_t value) {
    return member(key, std::to_string(value));
  }
  Report& flag(std::string_view key, bool value) {
    return member(key, value ? "true" : "false");
  }
  Report& text(std::string_view key, std::string_view value) {
    return member(key, quote(value));
  }

  /// Open a member object or array; an empty key opens an array element.
  /// Every object() and array() is closed by one end().
  Report& object(std::string_view key = {}) {
    item(key);
    return open('{');
  }
  Report& array(std::string_view key) {
    item(key);
    return open('[');
  }
  Report& end() {
    const Frame frame = stack_.back();
    stack_.pop_back();
    if (!frame.inline_layout && !frame.empty)
      out_ += '\n' + std::string(2 * stack_.size(), ' ');
    out_ += frame.close;
    return *this;
  }

  /// Close the document and write BENCH_<name>.json. Returns the exit
  /// code for main(): 0 when written, 1 when refused or on an I/O error.
  int write() {
    const std::string path = "BENCH_" + name_ + ".json";
    if (!non_finite_.empty()) {
      std::fprintf(stderr, "micro_%s: refusing to write %s: '%s' is not finite\n",
                   name_.c_str(), path.c_str(), non_finite_.c_str());
      return 1;
    }
    while (!stack_.empty()) end();
    out_ += '\n';
    std::FILE* f = std::fopen(path.c_str(), "w");
    const bool written =
        f != nullptr && std::fwrite(out_.data(), 1, out_.size(), f) == out_.size();
    const bool closed = f != nullptr && std::fclose(f) == 0;
    if (!written || !closed) {
      std::fprintf(stderr, "micro_%s: cannot write %s\n", name_.c_str(),
                   path.c_str());
      return 1;
    }
    std::fprintf(stderr, "micro_%s: wrote %s\n", name_.c_str(), path.c_str());
    return 0;
  }

 private:
  struct Frame {
    char close;
    bool inline_layout;
    bool empty;
  };

  static std::string quote(std::string_view s) {
    std::string q = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        q += '\\';
        q += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char esc[8];
        std::snprintf(esc, sizeof esc, "\\u%04x", static_cast<unsigned>(c));
        q += esc;
      } else {
        q += c;
      }
    }
    return q + '"';
  }

  static std::string cpu_model() {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
      if (line.rfind("model name", 0) != 0) continue;
      const std::size_t colon = line.find(": ");
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
    return "unknown";
  }

  static std::string compiler() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
  }

  void item(std::string_view key) {
    Frame& frame = stack_.back();
    if (frame.inline_layout)
      out_ += frame.empty ? "" : ", ";
    else
      out_ += (frame.empty ? "\n" : ",\n") + std::string(2 * stack_.size(), ' ');
    frame.empty = false;
    if (!key.empty()) out_ += quote(key) + ": ";
  }

  Report& member(std::string_view key, std::string_view value) {
    item(key);
    out_ += value;
    return *this;
  }

  Report& open(char bracket) {
    const bool top_level_array = stack_.size() == 1 && bracket == '[';
    stack_.push_back({bracket == '{' ? '}' : ']',
                      !stack_.empty() && !top_level_array, true});
    out_ += bracket;
    return *this;
  }

  std::string name_;
  std::string out_;
  std::vector<Frame> stack_;
  std::string non_finite_;  // first key given a NaN or infinity
};

}  // namespace thinair::bench

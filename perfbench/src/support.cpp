#include "support.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30U)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27U)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31U);
}

std::uint64_t Rng::next() noexcept {
  state_ += 0x9e3779b97f4a7c15ULL;
  return mix64(state_);
}

double Rng::uniform() noexcept { return static_cast<double>(next() >> 11U) * 0x1.0p-53; }

double Rng::exponential(double rate) noexcept { return -std::log1p(-uniform()) / rate; }

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::operator()(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

double ratio(double a, double b) noexcept { return b == 0.0 ? 0.0 : a / b; }

// ---------------------------------------------------------------- run record

void RunResult::fail(const std::string& reason, std::uint64_t n) {
  failed_ += n;
  failures_[reason] += n;
}

void RunResult::invalidate(const std::string& reason) { invalid_.push_back(reason); }

void RunResult::add(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    invalidate("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void RunResult::print_problems() const {
  for (const auto& [reason, n] : failures_) {
    std::printf("FAILED %" PRIu64 " x %s\n", n, reason.c_str());
  }
  for (const auto& why : invalid_) std::printf("INVALID run: %s\n", why.c_str());
}

std::string RunResult::to_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
    os << (i == 0 ? "" : ", ") << '"' << metrics_[i].name << "\": {\"value\": " << value
       << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

// ---------------------------------------------------------------- spans

void SpanLog::record(SpanRecord span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

namespace {

// Union length of [start, end) intervals, ns.
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t lo = 0;
  std::int64_t hi = -1;
  for (const auto& [a, b] : iv) {
    if (hi < lo || a > hi) {
      if (hi >= lo) total += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi >= lo) total += hi - lo;
  return total;
}

}  // namespace

void SpanLog::print_summary() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const SpanRecord& s : spans_) {
    if (s.parent == 0) continue;
    children[s.parent].emplace_back(s.start.time_since_epoch().count(),
                                    s.end.time_since_epoch().count());
  }
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> by_name;
  for (const SpanRecord& s : spans_) {
    const std::int64_t a = s.start.time_since_epoch().count();
    const std::int64_t b = s.end.time_since_epoch().count();
    std::vector<std::pair<std::int64_t, std::int64_t>> kids;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const auto& [ka, kb] : it->second) kids.emplace_back(std::max(a, ka), std::min(b, kb));
    }
    auto& [dur, self] = by_name[s.name];
    dur.push_back(static_cast<double>(b - a) / 1e6);
    self.push_back(static_cast<double>(b - a - covered_ns(std::move(kids))) / 1e6);
  }
  std::printf("spans: %zu recorded\n", spans_.size());
  std::printf("  %-34s %8s %12s %12s\n", "span", "count", "median ms", "self ms");
  for (const auto& [name, v] : by_name) {
    std::printf("  %-34s %8zu %12.4f %12.4f\n", name.c_str(), v.first.size(), median(v.first),
                median(v.second));
  }
}

void SpanLog::write_json(const std::filesystem::path& path,
                         const std::string& fingerprint) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "{\"fingerprint\": " << fingerprint << ",\n \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i == 0 ? "  " : ",\n  ") << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"query\": " << s.query << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start.time_since_epoch().count()
        << ", \"end_ns\": " << s.end.time_since_epoch().count() << "}";
  }
  out << "\n]}\n";
}

ScopedSpan::ScopedSpan(SpanLog& log, const char* name, std::uint64_t parent, std::uint64_t query)
    : name_(name), parent_(parent), query_(query) {
  if (!log.enabled()) return;
  log_ = &log;
  id_ = log.new_id();
  start_ = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  log_->record({id_, parent_, query_, name_, start_, Clock::now()});
}

// ---------------------------------------------------------------- host

namespace {

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

}  // namespace

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string fingerprint_json() {
  std::string l3 = read_first_line("/sys/devices/system/cpu/cpu0/cache/index3/size");
  if (l3.empty()) l3 = "unknown";
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"cpu_model\": \""
     << json_escape(cpu_model()) << "\", \"l3\": \"" << json_escape(l3)
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"build_flags\": \""
     << json_escape(PERFBENCH_BUILD_FLAGS) << "\", \"git_commit\": \""
     << json_escape(env_or("PERFBENCH_GIT_COMMIT", "unknown")) << "\", \"source_digest\": \""
     << json_escape(env_or("PERFBENCH_SOURCE_DIGEST", "unknown")) << "\"}";
  return os.str();
}

}  // namespace perfbench

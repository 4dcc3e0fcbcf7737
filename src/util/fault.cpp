#include "util/fault.hpp"

#include "util/env.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace vppb::util {
namespace {

constexpr int kSiteCount = static_cast<int>(FaultSite::kCount);

const char* kSiteNames[kSiteCount] = {
    "corrupt-frame", "short-read", "delay-ms", "cache-enomem", "cache-eio",
    "wedge-ms",
};

bool site_from_name(std::string_view name, FaultSite& out) {
  for (int i = 0; i < kSiteCount; ++i) {
    if (name == kSiteNames[i]) {
      out = static_cast<FaultSite>(i);
      return true;
    }
  }
  return false;
}

}  // namespace

FaultPlan::FaultPlan(const FaultPlan& other) {
  std::lock_guard<std::mutex> lock(other.mu_);
  for (int i = 0; i < kSiteCount; ++i) rules_[i] = other.rules_[i];
}

FaultPlan& FaultPlan::operator=(const FaultPlan& other) {
  if (this != &other) {
    FaultPlan copy(other);
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 0; i < kSiteCount; ++i) rules_[i] = copy.rules_[i];
  }
  return *this;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  for (const auto& entry : split(trim(spec), ',')) {
    const std::string_view e = trim(entry);
    if (e.empty()) continue;
    const auto fields = split(e, ':');
    FaultSite site;
    if (!site_from_name(fields[0], site)) {
      std::string known;
      for (int i = 0; i < kSiteCount; ++i)
        known += std::string(i ? " " : "") + kSiteNames[i];
      throw Error(strprintf("VPPB_FAULT: unknown site '%.*s' (known: %s)",
                            static_cast<int>(fields[0].size()),
                            fields[0].data(), known.c_str()));
    }
    if (fields.size() < 2 || fields.size() > 4)
      throw Error("VPPB_FAULT: expected site:period[:limit[:param]], got '" +
                  std::string(e) + "'");
    std::int64_t period = 0, limit = 0, param = 0;
    if (!parse_i64(fields[1], period) || period < 1)
      throw Error("VPPB_FAULT: bad period in '" + std::string(e) + "'");
    if (fields.size() >= 3 && (!parse_i64(fields[2], limit) || limit < 0))
      throw Error("VPPB_FAULT: bad limit in '" + std::string(e) + "'");
    if (fields.size() == 4 && !parse_i64(fields[3], param))
      throw Error("VPPB_FAULT: bad param in '" + std::string(e) + "'");
    Rule& r = plan.rules_[static_cast<int>(site)];
    r.period = static_cast<std::uint64_t>(period);
    r.limit = static_cast<std::uint64_t>(limit);
    r.param = param;
  }
  return plan;
}

FaultPlan& FaultPlan::global() {
  static FaultPlan plan = parse(env_or("VPPB_FAULT", ""));
  return plan;
}

bool FaultPlan::should_fire(FaultSite site) {
  std::lock_guard<std::mutex> lock(mu_);
  Rule& r = rules_[static_cast<int>(site)];
  if (r.period == 0) return false;
  if (r.limit != 0 && r.fired >= r.limit) return false;
  if (++r.hits % r.period != 0) return false;
  ++r.fired;
  return true;
}

std::int64_t FaultPlan::param(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return rules_[static_cast<int>(site)].param;
}

bool FaultPlan::armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Rule& r : rules_)
    if (r.period != 0) return true;
  return false;
}

std::uint64_t FaultPlan::fired_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const Rule& r : rules_) total += r.fired;
  return total;
}

std::string FaultPlan::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (int i = 0; i < kSiteCount; ++i) {
    const Rule& r = rules_[i];
    if (r.period == 0) continue;
    if (!out.empty()) out += ", ";
    out += strprintf("%s every %llu", kSiteNames[i],
                     static_cast<unsigned long long>(r.period));
    if (r.limit != 0)
      out += strprintf(" (max %llu)",
                       static_cast<unsigned long long>(r.limit));
    if (r.param != 0)
      out += strprintf(" [%lld]", static_cast<long long>(r.param));
  }
  return out.empty() ? "off" : out;
}

}  // namespace vppb::util

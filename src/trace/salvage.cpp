#include "trace/salvage.hpp"

#include <map>

#include "trace/trace.hpp"
#include "util/strings.hpp"

namespace vppb::trace {

const char* issue_kind_name(IssueKind kind) {
  switch (kind) {
    case IssueKind::kTruncated: return "truncated";
    case IssueKind::kBadMagic: return "bad-magic";
    case IssueKind::kBadVersion: return "bad-version";
    case IssueKind::kBadChecksum: return "bad-checksum";
    case IssueKind::kBadField: return "bad-field";
    case IssueKind::kBadReference: return "bad-reference";
    case IssueKind::kUnknownEvent: return "unknown-event";
    case IssueKind::kTimeRegression: return "time-regression";
    case IssueKind::kUnmatchedCall: return "unmatched-call";
    case IssueKind::kTrailingData: return "trailing-data";
    case IssueKind::kOpenCallTrimmed: return "open-call-trimmed";
  }
  return "?";
}

std::string LoadReport::summary() const {
  std::string out = strprintf(
      "recovered %zu events, dropped %zu", records_recovered, records_dropped);
  if (chunks_loaded + chunks_dropped > 0)
    out += strprintf(" (%zu of %zu chunks)", chunks_loaded,
                     chunks_loaded + chunks_dropped);
  if (issues.empty()) {
    out += "; no issues";
    return out;
  }
  out += strprintf("; %zu issue%s:", issues.size(),
                   issues.size() == 1 ? "" : "s");
  for (const TraceIssue& issue : issues) {
    out += strprintf("\n  [%s @%zu] %s", issue_kind_name(issue.kind),
                     issue.offset, issue.message.c_str());
  }
  return out;
}

std::size_t trim_open_calls(Trace& trace, LoadReport* report) {
  // Walk forward tracking open calls per thread; remember the longest
  // prefix after which no thread is inside a call — that is the cut.
  std::map<ThreadId, Op> open;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const Record& r = trace.records[i];
    if (!op_is_single(r.op)) {
      if (r.phase == Phase::kCall)
        open.emplace(r.tid, r.op);
      else
        open.erase(r.tid);
    }
    if (open.empty()) keep = i + 1;
  }
  const std::size_t dropped = trace.records.size() - keep;
  if (dropped == 0) return 0;
  trace.records.resize(keep);
  if (report != nullptr) {
    report->records_dropped += dropped;
    report->salvaged = true;
    report->issues.push_back(TraceIssue{
        IssueKind::kOpenCallTrimmed, keep,
        strprintf("trimmed %zu trailing record%s left inside an open call",
                  dropped, dropped == 1 ? "" : "s")});
  }
  return dropped;
}

void finish_load(Trace& trace, const LoadOptions& opt, LoadReport* report,
                 std::size_t thread_reads) {
  if (opt.salvage) trim_open_calls(trace, report);
  if (report == nullptr) return;
  report->records_recovered = trace.records.size();
  report->thread_reads = thread_reads;
  report->salvaged |= !report->issues.empty();
}

}  // namespace vppb::trace

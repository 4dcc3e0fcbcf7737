// Golden-digest determinism tests for the Simulator.
//
// Every case records a workload, simulates it under a specific
// configuration and compares core::digest(SimResult) — an
// order-sensitive fingerprint of every field, segment and event —
// against a value pinned in golden_cases.hpp (shared with the guard
// parity suite).  The goldens were captured from the straightforward
// sort-per-step scheduler the engine started with, so they lock the
// dispatch-queue scheduler (and any later rewrite) to bit-identical
// results: same speed-up, same totals, same segments in the same
// order, same per-thread statistics.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/result.hpp"
#include "golden_cases.hpp"
#include "solaris/solaris.hpp"
#include "trace/binary.hpp"

namespace vppb::core {
namespace {

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

TEST(DeterminismTest, GoldenDigests) {
  for (const GoldenCase& gc : kGoldenCases) {
    const CompiledTrace compiled = record_compiled(gc.workload);
    SimConfig cfg;
    gc.configure(cfg);
    const SimResult r = simulate(compiled, cfg);
    const std::uint64_t actual = digest(r);
    EXPECT_EQ(actual, gc.golden)
        << gc.name << ": actual digest " << hex(actual) << " (golden "
        << hex(gc.golden) << ")";
    EXPECT_GE(r.engine.max_runq_depth, gc.min_runq_depth)
        << gc.name << " no longer reaches a deep kernel queue";
  }
}

TEST(DeterminismTest, RepeatedSimulationIsBitIdentical) {
  const CompiledTrace compiled = record_compiled([] {
    workloads::fft(workloads::SplashParams{8, 0.2});
  });
  SimConfig cfg;
  cfg.hw.cpus = 4;
  const std::uint64_t first = digest(simulate(compiled, cfg));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(digest(simulate(compiled, cfg)), first) << "run " << i;
  }
}

TEST(DeterminismTest, RepeatedRecordingIsBitIdentical) {
  auto workload = [] { workloads::ocean(workloads::SplashParams{4, 0.1}); };
  SimConfig cfg;
  cfg.hw.cpus = 4;
  const std::uint64_t first =
      digest(simulate(record_compiled(workload), cfg));
  EXPECT_EQ(digest(simulate(record_compiled(workload), cfg)), first);
}

TEST(DeterminismTest, SalvagedPrefixSimulatesDeterministically) {
  // Salvage is part of the prediction pipeline: the same damaged log
  // must always recover the same prefix and simulate to the same
  // digest, or a crash investigation would chase a moving target.
  sol::Program program;
  const trace::Trace t = rec::record_program(program, [] {
    workloads::fork_join(4, SimTime::millis(2));
  });
  std::vector<std::uint8_t> bytes = trace::to_binary(t);
  bytes.resize(bytes.size() - 9);  // torn tail, as a crash would leave

  trace::LoadOptions opt;
  opt.salvage = true;
  SimConfig cfg;
  cfg.hw.cpus = 4;
  trace::LoadReport first_report;
  const trace::Trace first_trace =
      trace::from_binary(bytes.data(), bytes.size(), opt, &first_report);
  ASSERT_GT(first_report.records_recovered, 0u);
  const std::uint64_t first = digest(simulate(compile(first_trace), cfg));
  for (int i = 0; i < 3; ++i) {
    trace::LoadReport report;
    const trace::Trace again =
        trace::from_binary(bytes.data(), bytes.size(), opt, &report);
    EXPECT_EQ(report.records_recovered, first_report.records_recovered);
    EXPECT_EQ(report.records_dropped, first_report.records_dropped);
    EXPECT_EQ(digest(simulate(compile(again), cfg)), first) << "run " << i;
  }
}

}  // namespace
}  // namespace vppb::core

#include "solaris/probe.hpp"

#include "ult/runtime.hpp"

namespace vppb::sol {
namespace {

ProbeSink* g_sink = nullptr;
OpCostModel g_op_costs{};

SimTime cost_of(trace::Op op) {
  switch (trace::op_obj_kind(op)) {
    case trace::ObjKind::kMutex:
    case trace::ObjKind::kSema:
    case trace::ObjKind::kCond:
    case trace::ObjKind::kRwlock:
      return g_op_costs.sync;
    case trace::ObjKind::kThread:
      return op == trace::Op::kThrCreate ? g_op_costs.create
                                         : g_op_costs.thread_mgmt;
    default:
      return SimTime::zero();
  }
}

}  // namespace

void set_probe_sink(ProbeSink* sink) { g_sink = sink; }
ProbeSink* probe_sink() { return g_sink; }

void set_op_cost_model(const OpCostModel& model) { g_op_costs = model; }

namespace detail {

ProbeScope::ProbeScope(trace::Op op, trace::ObjectRef obj, std::int64_t arg,
                       std::int64_t arg2, const std::source_location& loc)
    : ctx_{op, obj, arg, arg2, loc, {}}, active_(g_sink != nullptr) {
  if (active_) g_sink->on_call(ctx_);
  // The modelled library cost lands between the call and return stamps,
  // so the Recorder captures it as the op's cost — whether or not a
  // sink is attached (recording must not change behaviour).
  const SimTime cost = cost_of(op);
  if (!cost.is_zero() && ult::Runtime::in_runtime() &&
      ult::Runtime::current().clock_mode() == ult::ClockMode::kVirtual) {
    ult::Runtime::current().work(cost);
  }
}

ProbeScope::~ProbeScope() {
  if (active_ && g_sink != nullptr) g_sink->on_return(ctx_, result_);
}

}  // namespace detail
}  // namespace vppb::sol

// Load a recorded log file, simulate it under a chosen configuration,
// and render the two graphs — the Visualizer end of the paper's
// workflow, driven from the command line.
//
// Usage:
//   ./quickstart                            # produces quickstart.trace
//   ./visualize_trace quickstart.trace --cpus 4 --svg out.svg
//   ./visualize_trace quickstart.trace --cpus 2 --zoom 3 --compress
#include <cstdio>
#include <fstream>

#include "core/engine.hpp"
#include "trace/binary.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"
#include "viz/visualizer.hpp"

int main(int argc, char** argv) {
  using namespace vppb;

  Flags flags;
  flags.define_i64("cpus", 4, "simulated processors");
  flags.define_i64("lwps", 0, "LWP pool (0 = one per thread)");
  flags.define_string("svg", "", "write the combined SVG here");
  flags.define_double("zoom", 1.0, "zoom factor (1.5/3 are paper steps)");
  flags.define_bool("compress", false, "hide threads inactive in the view");
  flags.define_i64("columns", 110, "ASCII width");
  flags.parse(argc, argv);

  if (flags.positional().empty()) {
    std::fprintf(stderr, "usage: visualize_trace <trace-file> [flags]\n%s",
                 flags.usage("visualize_trace").c_str());
    return 1;
  }

  try {
    const trace::Trace log = trace::load_any_file(flags.positional()[0]);
    core::SimConfig cfg;
    cfg.hw.cpus = static_cast<int>(flags.i64("cpus"));
    cfg.sched.lwps = static_cast<int>(flags.i64("lwps"));
    const core::SimResult result = core::simulate(log, cfg);

    std::printf("%s: %zu events, %zu threads; predicted %s on %d CPUs "
                "(speed-up %.2f)\n\n",
                flags.positional()[0].c_str(), log.records.size(),
                log.threads.size(), result.total.to_string().c_str(),
                cfg.hw.cpus, result.speedup);

    viz::Visualizer viz(result, log);
    if (flags.dbl("zoom") > 1.0) viz.zoom_in(flags.dbl("zoom"));
    if (flags.boolean("compress")) viz.compress_threads();

    const int columns = static_cast<int>(flags.i64("columns"));
    std::printf("%s\n", viz::render_parallelism_ascii(viz, columns, 8).c_str());
    std::printf("%s", viz::render_flow_ascii(viz, columns).c_str());

    if (!flags.str("svg").empty()) {
      std::ofstream(flags.str("svg"))
          << viz::render_svg(viz, viz::RenderOptions{});
      std::printf("\nwrote %s\n", flags.str("svg").c_str());
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

// fig2_architecture — reproduces paper Fig 2, the software architecture.
//
// "Overview of the software architecture: the client interacts with each
// server to gather information about paths and then stores them in the
// database."  Emits the 3-tier architecture as Graphviz DOT, with each
// tier annotated by the module of this repository that implements it,
// and prints the three-step interaction model of §4.
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace upin;
  const bool csv = bench::want_csv(argc, argv);  // csv => DOT only

  const scion::ScionlabEnv env = scion::scionlab_topology();
  if (!csv) {
    bench::print_header(
        "Fig 2 — software architecture (Graphviz DOT below)",
        "3-tier: measurement client x globally distributed servers x "
        "database");
    std::printf(
        "interaction model (§4):\n"
        "  1. Paths Collection      scion showpaths --extended -m 40   "
        "(upin::measure::TestSuite::collect_paths)\n"
        "  2. Paths Test Execution  ping + bwtest per path             "
        "(upin::measure::TestSuite::step)\n"
        "  3. Stats Storage         batched insert per destination     "
        "(upin::docdb::Collection::insert_many)\n\n");
  }

  std::printf("digraph architecture {\n");
  std::printf("  rankdir=LR;\n");
  std::printf("  node [shape=box, style=filled, fillcolor=white, fontsize=10];\n");
  std::printf("  client [label=\"measurement client\\n%s\\n(upin::apps::ScionHost +\\nupin::measure::TestSuite)\", fillcolor=lightblue];\n",
              env.user_as.to_string().c_str());
  std::printf("  db [label=\"measurement database\\navailableServers / paths / paths_stats\\n(upin::docdb::Database)\", shape=cylinder, fillcolor=lightyellow];\n");
  std::printf("  subgraph cluster_servers {\n");
  std::printf("    label=\"globally distributed servers (21, upin::scion::scionlab_topology)\";\n");
  for (std::size_t i = 0; i < env.servers.size(); ++i) {
    const scion::AsInfo* info = env.topology.find_as(env.servers[i].ia);
    std::printf("    s%zu [label=\"%zu: %s\\n%s\"];\n", i + 1, i + 1,
                info != nullptr ? info->name.c_str() : "?",
                env.servers[i].ia.to_string().c_str());
  }
  std::printf("  }\n");
  for (std::size_t i = 0; i < env.servers.size(); ++i) {
    std::printf("  client -> s%zu [label=\"%s\", fontsize=7];\n", i + 1,
                i == 0 ? "showpaths / ping / bwtest" : "");
  }
  std::printf("  client -> db [label=\"batched stats (insert_many)\"];\n");
  std::printf("  db -> client [label=\"path selection queries\"];\n");
  std::printf("}\n");
  return 0;
}

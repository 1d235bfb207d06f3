// The testbed's one segment store (ScionlabEnv::beaconing): every host
// on an env shares it, a copied, moved or assigned env builds a store of
// its own from its own topology, and hosts on several threads read the
// shared store exactly as they would read a fresh one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/host.hpp"
#include "scion/beacon.hpp"
#include "scion/scionlab.hpp"
#include "util/rng.hpp"

namespace upin::apps {
namespace {

using scion::Beaconing;
using scion::IsdAsn;
using scion::Path;
using scion::ScionlabEnv;

/// The pairs a campaign asks about: the user AS to every AS, and every
/// server back to the user AS.
std::vector<std::pair<IsdAsn, IsdAsn>> campaign_pairs(const ScionlabEnv& env) {
  std::vector<std::pair<IsdAsn, IsdAsn>> pairs;
  for (const scion::AsInfo& info : env.topology.ases()) {
    pairs.emplace_back(env.user_as, info.ia);
  }
  for (const scion::SnetAddress& server : env.servers) {
    pairs.emplace_back(server.ia, env.user_as);
  }
  return pairs;
}

/// Whether `env`'s store answers every campaign pair as a fresh store on
/// its topology does: the same paths, in order, field for field.
void expect_answers_of_a_fresh_store(const ScionlabEnv& env) {
  const Beaconing fresh(env.topology);
  std::size_t nonempty = 0;
  for (const auto& [src, dst] : campaign_pairs(env)) {
    const std::vector<Path>& want = fresh.paths(src, dst);
    EXPECT_TRUE(env.beaconing().paths(src, dst) == want)
        << src.to_string() << " -> " << dst.to_string();
    if (!want.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, env.servers.size());
}

TEST(SharedSegmentStore, HostsOnOneEnvShareItsStore) {
  const ScionlabEnv env = scion::scionlab_topology();
  const ScionHost first(env, 1, env.user_as, "10.0.8.1");
  const ScionHost second(env, 2, env.user_as, "10.0.8.2");
  EXPECT_EQ(&first.beaconing(), &second.beaconing());
  EXPECT_EQ(&first.beaconing(), &env.beaconing());
}

TEST(SharedSegmentStore, CopiedMovedAndAssignedEnvsBuildTheirOwn) {
  auto original = std::make_unique<ScionlabEnv>(scion::scionlab_topology());
  const Beaconing* original_store = &original->beaconing();

  const ScionlabEnv copied(*original);
  ScionlabEnv source(*original);
  (void)source.beaconing();
  const ScionlabEnv moved(std::move(source));
  // Assignment targets start on another topology with a store of their
  // own, which they must drop.
  ScionlabEnv assigned = scion::scionlab_topology_multihomed();
  (void)assigned.beaconing();
  assigned = *original;
  ScionlabEnv move_assigned = scion::scionlab_topology_multihomed();
  (void)move_assigned.beaconing();
  move_assigned = ScionlabEnv(*original);
  const ScionlabEnv multihomed_copy(scion::scionlab_topology_multihomed());

  const std::vector<const ScionlabEnv*> envs = {
      &copied, &moved, &assigned, &move_assigned, &multihomed_copy};
  std::vector<const Beaconing*> stores = {original_store};
  for (const ScionlabEnv* env : envs) {
    const Beaconing* store = &env->beaconing();
    for (const Beaconing* other : stores) EXPECT_NE(store, other);
    stores.push_back(store);
  }

  // No env may answer from the original's store once the original is
  // gone.
  original.reset();
  for (const ScionlabEnv* env : envs) expect_answers_of_a_fresh_store(*env);
}

TEST(SharedSegmentStore, HostsOnSeveralThreadsSeeAFreshStoresAnswers) {
  constexpr int kThreads = 4;
  constexpr int kQueries = 40;
  const ScionlabEnv env = scion::scionlab_topology();
  // Each server's paths from a store of its own, on this thread.
  std::vector<std::vector<Path>> want;
  for (const scion::SnetAddress& server : env.servers) {
    want.push_back(Beaconing(env.topology).paths(env.user_as, server.ia));
  }
  ShowpathsOptions options;
  options.max_paths = 40;

  std::vector<std::vector<std::string>> failures(kThreads);
  std::vector<const Beaconing*> stores(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto index = static_cast<std::size_t>(t);
      // The first host built here may be the one that builds the store.
      const ScionHost host(env, 100 + index, env.user_as, "10.0.8.1");
      stores[index] = &host.beaconing();
      util::Rng rng(7 + index);
      for (int q = 0; q < kQueries; ++q) {
        const auto server = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(env.servers.size()) - 1));
        const IsdAsn dst = env.servers[server].ia;
        const auto listings = host.showpaths(dst, options);
        if (!listings.ok()) {
          failures[index].push_back(dst.to_string() + ": " +
                                    listings.error().message);
          continue;
        }
        const std::vector<Path>& paths = want[server];
        const std::size_t count = std::min(paths.size(), options.max_paths);
        if (listings.value().size() != count) {
          failures[index].push_back(dst.to_string() + ": " +
                                    std::to_string(listings.value().size()) +
                                    " listings, want " + std::to_string(count));
          continue;
        }
        for (std::size_t i = 0; i < count; ++i) {
          const Path& got = listings.value()[i].path;
          if (got.hops() != paths[i].hops() ||
              got.static_latency() != paths[i].static_latency() ||
              got.mtu() != paths[i].mtu()) {
            failures[index].push_back(dst.to_string() + " path " +
                                      std::to_string(i) + ": " +
                                      got.sequence() + " vs " +
                                      paths[i].sequence());
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    const auto index = static_cast<std::size_t>(t);
    EXPECT_TRUE(failures[index].empty())
        << "thread " << t << ": " << failures[index].front();
    EXPECT_EQ(stores[index], &env.beaconing()) << "thread " << t;
  }
}

}  // namespace
}  // namespace upin::apps

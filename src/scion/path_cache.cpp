#include "scion/path_cache.hpp"

#include <utility>

#include "obs/metrics.hpp"

namespace upin::scion {

using util::SimTime;
using util::Value;

namespace {

struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& stale_served;
  obs::Counter& evictions;

  static CacheMetrics& get() {
    obs::Registry& registry = obs::Registry::global();
    static CacheMetrics metrics{
        registry.counter("upin_path_cache_hits_total"),
        registry.counter("upin_path_cache_misses_total"),
        registry.counter("upin_path_cache_stale_served_total"),
        registry.counter("upin_path_cache_evictions_total"),
    };
    return metrics;
  }
};

}  // namespace

PathCache::PathCache(PathCacheConfig config) : config_(config) {}

void PathCache::touch(EntryList::iterator it) {
  entries_.splice(entries_.begin(), entries_, it);
}

void PathCache::evict_to_capacity() {
  while (index_.size() > config_.capacity && !entries_.empty()) {
    index_.erase(AsPair{entries_.back().src, entries_.back().dst});
    entries_.pop_back();
    ++stats_.evictions;
    CacheMetrics::get().evictions.add();
  }
}

void PathCache::refresh(Entry& entry, SimTime now, const Resolver& resolve) {
  entry.paths = resolve(entry.src, entry.dst);
  entry.resolved_at = now;
  entry.negative = entry.paths.empty();
  entry.dirty = false;
}

void PathCache::visit(IsdAsn src, IsdAsn dst, SimTime now,
                      const Resolver& resolve, bool resolver_available,
                      const Visitor& fn) {
  PathCacheServed served;
  if (!config_.enabled) {
    // Bypass mode: every lookup asks the resolver directly.
    served.refreshed = true;
    fn(resolve(src, dst), served);
    return;
  }
  CacheMetrics& metrics = CacheMetrics::get();
  // A miss that re-resolves `entry` and serves the fresh answer.
  const auto serve_refreshed = [&](Entry& entry) {
    ++stats_.misses;
    metrics.misses.add();
    refresh(entry, now, resolve);
    served.negative = entry.negative;
    served.refreshed = true;
    fn(entry.paths, served);
  };
  const AsPair key{src, dst};
  const auto found = index_.find(key);

  if (found == index_.end()) {
    if (!resolver_available) {
      // Nothing cached and no path server to ask: a hard miss.
      ++stats_.misses;
      metrics.misses.add();
      served.negative = true;
      fn({}, served);
      return;
    }
    entries_.push_front(Entry{src, dst, {}, now});
    index_[key] = entries_.begin();
    serve_refreshed(entries_.front());
    // Evict only after serving: at capacity 0 the new entry goes too.
    evict_to_capacity();
    return;
  }

  touch(found->second);
  Entry& entry = *found->second;
  const double age_s = util::to_seconds(now - entry.resolved_at);

  if (entry.negative) {
    if (age_s < config_.negative_ttl_s || !resolver_available) {
      ++stats_.hits;
      ++stats_.negative_hits;
      metrics.hits.add();
      served.hit = true;
      served.negative = true;
      fn(entry.paths, served);
      return;
    }
    serve_refreshed(entry);
    return;
  }

  if (entry.dirty) {
    if (resolver_available) {
      // A revocation touched this entry; re-resolve before serving.
      serve_refreshed(entry);
      return;
    }
    ++stats_.stale_served;
    metrics.stale_served.add();
    served.hit = true;
    served.stale = true;
    fn(entry.paths, served);
    return;
  }

  if (age_s < config_.ttl_s) {
    ++stats_.hits;
    metrics.hits.add();
    served.hit = true;
    fn(entry.paths, served);
    return;
  }

  if (age_s < config_.ttl_s + config_.stale_serve_s || !resolver_available) {
    // Stale-while-revalidate: answer with the old paths now, refresh the
    // entry so the next caller gets a fresh one.  With the resolver down
    // the grace window is unbounded — stale beats unreachable.
    ++stats_.stale_served;
    metrics.stale_served.add();
    served.hit = true;
    served.stale = true;
    served.refreshed = resolver_available;
    fn(entry.paths, served);
    if (resolver_available) refresh(entry, now, resolve);
    return;
  }

  // Too stale even for the grace window: a plain refresh.
  serve_refreshed(entry);
}

PathCacheLookup PathCache::lookup(IsdAsn src, IsdAsn dst, SimTime now,
                                  const Resolver& resolve,
                                  bool resolver_available) {
  PathCacheLookup result;
  visit(src, dst, now, resolve, resolver_available,
        [&result](const std::vector<Path>& paths,
                  const PathCacheServed& served) {
          static_cast<PathCacheServed&>(result) = served;
          result.paths = paths;
        });
  if (result.stale) {
    for (Path& path : result.paths) path.set_status("stale");
  }
  return result;
}

std::size_t PathCache::invalidate_if(
    const std::function<bool(const Path&)>& covered) {
  std::size_t marked = 0;
  for (Entry& entry : entries_) {
    if (entry.dirty || entry.negative) continue;
    for (const Path& path : entry.paths) {
      if (covered(path)) {
        entry.dirty = true;
        ++marked;
        ++stats_.invalidations;
        break;
      }
    }
  }
  return marked;
}

void PathCache::clear() {
  entries_.clear();
  index_.clear();
}

Value PathCache::snapshot() const {
  Value::Array entries;
  entries.reserve(entries_.size());
  for (const Entry& entry : entries_) {  // front-to-back == LRU order
    entries.push_back(Value::object({
        {"src", entry.src.to_string()},
        {"dst", entry.dst.to_string()},
        {"resolved_at_ns", entry.resolved_at.count()},
        {"negative", entry.negative},
        {"dirty", entry.dirty},
    }));
  }
  return Value::object({{"entries", Value(std::move(entries))}});
}

util::Status PathCache::restore(const Value& value, const Resolver& resolve) {
  const auto malformed = [](const std::string& what) {
    return util::Status(util::ErrorCode::kParseError,
                        "path cache snapshot: " + what);
  };
  const Value* entries = value.get("entries");
  if (entries == nullptr || !entries->is_array()) {
    return malformed("missing entries array");
  }
  // Rebuild into fresh containers and swap them in only once the whole
  // snapshot has decoded, so a rejected snapshot leaves the cache as is.
  EntryList restored;
  std::unordered_map<AsPair, EntryList::iterator, AsPairHash> index;
  // Iterate the snapshot back-to-front and push_front, so the serialized
  // LRU order (front = most recent) is reproduced exactly.
  const Value::Array& list = entries->as_array();
  for (auto it = list.rbegin(); it != list.rend(); ++it) {
    const Value& item = *it;
    const Value* src_text = item.get("src");
    const Value* dst_text = item.get("dst");
    const Value* resolved_at = item.get("resolved_at_ns");
    const Value* negative = item.get("negative");
    const Value* dirty = item.get("dirty");
    if (src_text == nullptr || !src_text->is_string() || dst_text == nullptr ||
        !dst_text->is_string() || resolved_at == nullptr ||
        !resolved_at->is_int() ||
        (negative != nullptr && !negative->is_bool()) ||
        (dirty != nullptr && !dirty->is_bool())) {
      return malformed("malformed entry");
    }
    const std::string pair_text =
        src_text->as_string() + ">" + dst_text->as_string();
    const util::Result<IsdAsn> src = IsdAsn::parse(src_text->as_string());
    const util::Result<IsdAsn> dst = IsdAsn::parse(dst_text->as_string());
    if (!src.ok() || !dst.ok()) return malformed("bad ISD-AS in " + pair_text);
    const AsPair key{src.value(), dst.value()};
    if (index.contains(key)) return malformed("duplicate entry " + pair_text);

    // A pair this cache already holds keeps its paths: they are the
    // resolver's answer, so resuming through many units combines it once.
    const auto held = index_.find(key);
    Entry entry{key.first, key.second,
                held != index_.end() ? held->second->paths
                                     : resolve(key.first, key.second),
                SimTime(util::SimDuration(resolved_at->as_int())),
                negative != nullptr && negative->as_bool(),
                dirty != nullptr && dirty->as_bool()};
    if (entry.negative != entry.paths.empty()) {
      return malformed("negative flag of " + pair_text +
                       " disagrees with the resolver");
    }
    restored.push_front(std::move(entry));
    index.emplace(key, restored.begin());
  }
  entries_.swap(restored);
  index_.swap(index);
  evict_to_capacity();
  return util::Status::success();
}

}  // namespace upin::scion

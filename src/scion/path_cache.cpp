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

PathCache::PathCache(Resolver resolve, PathCacheConfig config)
    : resolve_(std::move(resolve)), config_(config) {}

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

const std::vector<Path>& PathCache::refresh(Entry& entry, SimTime now) {
  const std::vector<Path>& paths = resolve_(entry.src, entry.dst);
  entry.resolved_at = now;
  entry.negative = paths.empty();
  entry.dirty = false;
  return paths;
}

PathCacheServed PathCache::serve(IsdAsn src, IsdAsn dst, SimTime now,
                                 bool resolver_available) {
  PathCacheServed served;
  if (!config_.enabled) {
    // Bypass mode: every lookup asks the resolver directly.
    served.refreshed = true;
    served.paths = resolve_(src, dst);
    return served;
  }
  CacheMetrics& metrics = CacheMetrics::get();
  // A miss that re-resolves `entry` and serves the fresh answer.
  const auto serve_refreshed = [&](Entry& entry) {
    ++stats_.misses;
    metrics.misses.add();
    served.paths = refresh(entry, now);
    served.negative = entry.negative;
    served.refreshed = true;
    return served;
  };
  const AsPair key{src, dst};
  const auto found = index_.find(key);

  if (found == index_.end()) {
    if (!resolver_available) {
      // Nothing cached and no path server to ask: a hard miss.
      ++stats_.misses;
      metrics.misses.add();
      served.negative = true;
      return served;
    }
    entries_.push_front(Entry{src, dst, now});
    index_[key] = entries_.begin();
    serve_refreshed(entries_.front());
    // Evict only after resolving: at capacity 0 the new entry goes too.
    evict_to_capacity();
    return served;
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
      return served;
    }
    return serve_refreshed(entry);
  }

  if (entry.dirty && resolver_available) {
    // A revocation touched this entry; re-resolve before serving.
    return serve_refreshed(entry);
  }

  if (!entry.dirty && age_s < config_.ttl_s) {
    ++stats_.hits;
    metrics.hits.add();
    served.hit = true;
    served.paths = resolve_(src, dst);
    return served;
  }

  if (entry.dirty || age_s < config_.ttl_s + config_.stale_serve_s ||
      !resolver_available) {
    // Stale-while-revalidate: answer with the entry's paths now, flagged
    // stale, and refresh it so the next caller gets a fresh one.  With the
    // resolver down the grace window is unbounded, and a dirty entry is
    // served stale too — stale beats unreachable.
    ++stats_.stale_served;
    metrics.stale_served.add();
    served.hit = true;
    served.stale = true;
    served.refreshed = resolver_available;
    served.paths = resolver_available ? refresh(entry, now) : resolve_(src, dst);
    return served;
  }

  // Too stale even for the grace window: a plain refresh.
  return serve_refreshed(entry);
}

std::size_t PathCache::invalidate_if(
    const std::function<bool(const Path&)>& covered) {
  std::size_t marked = 0;
  for (Entry& entry : entries_) {
    if (entry.dirty || entry.negative) continue;
    for (const Path& path : resolve_(entry.src, entry.dst)) {
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

util::Status PathCache::restore(const Value& value) {
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

    const Entry entry{key.first, key.second,
                      SimTime(util::SimDuration(resolved_at->as_int())),
                      negative != nullptr && negative->as_bool(),
                      dirty != nullptr && dirty->as_bool()};
    if (entry.negative != resolve_(key.first, key.second).empty()) {
      return malformed("negative flag of " + pair_text +
                       " disagrees with the resolver");
    }
    restored.push_front(entry);
    index.emplace(key, restored.begin());
  }
  entries_.swap(restored);
  index_.swap(index);
  evict_to_capacity();
  return util::Status::success();
}

}  // namespace upin::scion

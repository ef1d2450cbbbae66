#include "web/web_server.h"

#include <cassert>
#include <numeric>
#include <utility>

#include "obs/energy.h"
#include "obs/tracer.h"

namespace wimpy::web {

namespace {

constexpr Bytes kErrorReplyBytes = 320;  // terse 500 page

// The "cache"/"db" child span of the serve span around a fetch, resident
// on the backend node for energy attribution. The span begins when the
// awaiter starts this wrapper, right before the fetch itself; `serve` is
// a copy, not a reference into the awaiter.
sim::Task<void> FetchSpan(sim::Task<void> fetch, obs::TraceHandle serve,
                          const char* name, int backend_id,
                          obs::EnergyAttributor* energy) {
  obs::CausalSpan span(serve, name, obs::Category::kRequest, backend_id);
  obs::ScopedResidency residency(energy, backend_id, span.handle(), name);
  co_await std::move(fetch);
}

// An untraced fetch is the backend's task itself: no wrapper frame.
sim::Task<void> WithFetchSpan(sim::Task<void> fetch,
                              const obs::TraceHandle& serve, const char* name,
                              int backend_id, obs::EnergyAttributor* energy) {
  if (!serve) return fetch;
  return FetchSpan(std::move(fetch), serve, name, backend_id, energy);
}

}  // namespace

std::shared_ptr<const shard::Ring> MakeCacheRing(std::size_t cache_count) {
  std::vector<int> ids(cache_count);
  std::iota(ids.begin(), ids.end(), 0);
  auto ring = std::make_shared<shard::Ring>(shard::RingConfig{});
  ring->AddNodes(ids);
  return ring;
}

WebServer::WebServer(hw::ServerNode* node, net::Fabric* fabric,
                     std::vector<CacheServer*> caches,
                     std::vector<DatabaseServer*> databases,
                     const WebServerConfig& config, std::uint64_t seed,
                     std::shared_ptr<const shard::Ring> cache_ring)
    : node_(node),
      fabric_(fabric),
      caches_(std::move(caches)),
      cache_ring_(cache_ring != nullptr ? std::move(cache_ring)
                                        : MakeCacheRing(caches_.size())),
      databases_(std::move(databases)),
      config_(config),
      tcp_host_(fabric, node->id(), config.tcp),
      php_workers_(&node->scheduler(), config.php_workers),
      accept_serial_(&node->scheduler(), 1),
      rng_(seed) {
  assert(config.service_efficiency > 0);
  assert(cache_ring_->node_count() == static_cast<int>(caches_.size()));
}

void WebServer::ResetStats() {
  calls_ok_ = 0;
  errors_500_ = 0;
  total_delay_ = OnlineStats();
  cache_delay_ = OnlineStats();
  db_delay_ = OnlineStats();
}

sim::Task<void> WebServer::AcceptWork() {
  // One accept thread: connection setups serialise here, and the CPU work
  // itself contends with PHP execution on the shared cores. The backlog
  // slot taken at SYN time (Connect with hold_backlog) is released only
  // when this accept completes — so the SYN queue drains at the accept
  // rate and overflows under connection floods, producing the Figure 11
  // retransmission spikes.
  {
    sim::SemaphoreGuard guard(accept_serial_);
    co_await guard.Acquired();
    co_await node_->cpu().Execute(Derated(config_.accept_minstr));
  }
  tcp_host_.LeaveBacklog();
}

sim::Task<void> WebServer::Fetch(bool cache_hit, Bytes reply_bytes,
                                 const obs::TraceHandle& serve) {
  if (cache_hit) {
    // The request's key hash picks the shard; its primary owner is the
    // cache holding the entry.
    CacheServer* cache = caches_[static_cast<std::size_t>(
        cache_ring_->PrimaryOf(cache_ring_->ShardOf(rng_.Next())))];
    return WithFetchSpan(cache->Get(node_->id(), reply_bytes), serve,
                         "cache", cache->node().id(), energy_);
  }
  DatabaseServer* db = databases_[rng_.NextBelow(databases_.size())];
  return WithFetchSpan(db->Query(node_->id(), reply_bytes), serve, "db",
                       db->node().id(), energy_);
}

sim::Task<CallResult> WebServer::ServeCall(int client_node_id,
                                           const RequestSpec& spec,
                                           const obs::TraceHandle& parent) {
  // Upstream request bytes.
  co_await fabric_->Transfer(client_node_id, node_->id(), 200, parent,
                             "req_xfer");
  const SimTime started = node_->scheduler().now();

  // The serve span brackets exactly the interval `result.total` measures
  // (`started` to the co_return), so Table 7's total delay is
  // re-derivable from the trace alone; likewise the cache/db child spans
  // (see Fetch) bracket exactly the recorded fetch delays.
  obs::CausalSpan serve(parent, "serve", obs::Category::kRequest,
                        node_->id());
  obs::ScopedResidency serve_res(energy_, node_->id(), serve.handle(),
                                 "serve");

  // Every local below lives in the coroutine frame for the whole call,
  // reply transfer included, so the call keeps as few as it can.
  CallResult result;
  // Overload check: lighttpd+FastCGI answers 500 when the backend queue is
  // hopeless rather than queueing forever.
  if (php_workers_.queue_length() >=
      static_cast<std::size_t>(config_.php_workers) *
          static_cast<std::size_t>(config_.queue_factor)) {
    ++errors_500_;
    serve.Instant("http_500");
    co_await node_->cpu().Execute(Derated(0.05));
    result.reply_bytes = kErrorReplyBytes;
  } else {
    sim::SemaphoreGuard worker(php_workers_);
    co_await worker.Acquired();

    // PHP request parsing + script execution.
    co_await node_->cpu().Execute(Derated(config_.request_base_minstr));

    // Content fetch: cache tier on a hit, database tier on a miss.
    const bool cache_hit = spec.cache_hit && !caches_.empty();
    if (cache_hit || !databases_.empty()) {
      const SimTime t0 = node_->scheduler().now();
      co_await Fetch(cache_hit, spec.reply_bytes, serve.handle());
      const Duration delay = node_->scheduler().now() - t0;
      (cache_hit ? result.cache_delay : result.db_delay) = delay;
      (cache_hit ? cache_delay_ : db_delay_).Add(delay);
    }

    // Reply assembly scales with the content size.
    co_await node_->cpu().Execute(
        Derated(config_.assembly_minstr_per_kb *
                (static_cast<double>(spec.reply_bytes) / 1000.0)));
    result.ok = true;
    result.reply_bytes = spec.reply_bytes;
    // The worker is free once the content is handed to the event loop.
  }

  co_await fabric_->Transfer(node_->id(), client_node_id, result.reply_bytes,
                             serve.handle(), "reply_xfer");

  result.total = node_->scheduler().now() - started;
  if (result.ok) {
    ++calls_ok_;
    total_delay_.Add(result.total);
  }
  co_return result;
}

}  // namespace wimpy::web

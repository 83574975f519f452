// Shard-key computation: the gateway's view of "which cache line is
// this request". A predict request's key folds together exactly the
// components of the worker tier's response-cache key — scheme hash,
// canonical model, static flag, reference-rate override, fabric and
// fault schedule — so two requests that would share a worker cache
// entry always shard to the same upstream, and the fleet's effective
// cache is the union of its replicas' LRUs.
package gateway

import (
	"bwshare/internal/api"
)

// predictShardKey resolves one predict request to its api.Key, the one
// the worker looks its cache up by, built without a graph, and folds it
// into a shard key (api.Key.ShardKey). It reports false for a request
// the key rejects; callers fall back to a raw-bytes key so any healthy
// worker can produce the identical rejection. A request whose graph the
// worker's builder rejects still keys here, on the scheme it names:
// every worker answers it with the same error.
//
// One deliberate asymmetry with the worker's key: an explicit RefRate
// equal to the substrate default shards separately from an omitted one
// (the gateway does not know per-model defaults — that knowledge lives
// with the simulator registry, which this tier must not link). Both
// forms still answer correctly; they may just warm two replicas' caches
// instead of one.
func predictShardKey(k *api.Key, req *api.PredictRequest) (uint64, bool) {
	if k.Resolve(req) != nil {
		return 0, false
	}
	return k.ShardKey(), true
}

// itemShardKey keys one batch item: the cache-line key when the item
// resolves, a hash of the item's bytes when it does not (every worker
// embeds the identical per-item error, so the fallback only needs to be
// stable, not meaningful).
func itemShardKey(k *api.Key, item *api.PredictRequest, raw []byte) uint64 {
	if key, ok := predictShardKey(k, item); ok {
		return key
	}
	return hashBytes(raw)
}

// clusterShardKey pins every request about one named cluster — create,
// get, jobs, placements, delete — to the same upstream: the cluster
// manager is stateful per worker, so a cluster's whole session must
// live where it was created.
func clusterShardKey(name string) uint64 {
	return hashString("cluster\x00" + name)
}

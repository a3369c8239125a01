// Package tablecache sizes the cache of compiled kernel tables:
// artifacts that are expensive to build (a model walk per node type)
// but answer every request against the same cluster. Its keys
// canonicalize only the cluster spec — never work size, deadline or
// prune flag — so every request shape against the same cluster shares
// one compiled artifact.
//
// The cache itself is a servercache.Cache, the same LRU, singleflight
// and byte accounting as the result cache. Tables report their resident
// size through SizeBytes. The capacities used here stay below the size
// at which servercache starts sharding, so the table cache is one exact
// LRU: Hottest order and byte-limited trims are exact.
package tablecache

import "heteromix/internal/servercache"

// DefaultCapacity bounds the cache when the caller passes a
// non-positive capacity: generous for the handful of distinct clusters
// a deployment serves, small enough that even worst-case tables stay
// within tens of megabytes.
const DefaultCapacity = 64

// New returns an empty table cache holding at most capacity tables
// (capacity <= 0 selects DefaultCapacity).
func New(capacity int) *servercache.Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return servercache.New(capacity)
}

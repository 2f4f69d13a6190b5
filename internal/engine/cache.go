package engine

import "ssync/internal/store"

// CacheStats is a point-in-time snapshot of cache counters. For the
// engine's tiered result cache it folds both tiers into the classic view
// (a hit is a hit whether memory or disk served it); Stats.Results holds
// the per-tier breakdown.
type CacheStats = store.LRUStats

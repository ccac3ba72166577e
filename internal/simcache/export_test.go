package simcache

import "iophases/internal/ior"

// TargetKey exposes a Target's replay key to the external tests.
func TargetKey(t *Target, p ior.Params) string { return t.key(p) }

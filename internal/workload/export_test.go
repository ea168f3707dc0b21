package workload

// RanAtomic reports whether w's last run used the atomic operation
// family.
func RanAtomic(w *DHTOps) bool { return w.atomic }

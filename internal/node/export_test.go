package node

// reset empties the memo and zeroes its counters.
func (m *prefillMemo) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = map[prefillKey]*prefillEntry{}
	m.lru.Init()
	m.bytes, m.hits, m.misses = 0, 0, 0
}

// counts reports the memo's hits and misses since its last reset.
func (m *prefillMemo) counts() (hits, misses uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// ResetPrefills empties the process-wide prefill memo, as a fresh
// process starts, for tests outside the package.
func ResetPrefills() { prefills.reset() }

// PrefillCounts reports the process-wide memo's hits and misses since
// the last ResetPrefills.
func PrefillCounts() (hits, misses uint64) { return prefills.counts() }

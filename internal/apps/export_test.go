package apps

import "repro/internal/scenario"

// SetBuilt installs (nil removes) the hook that sees every machine the
// package's runs construct.
func SetBuilt(f func(m *scenario.Machine)) { built = f }

package unreachable_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

// TestCheck runs the check over its fixture module: reached exports, a
// String method of a reached type, a method reached through a generic
// instantiation, constants of a reached type, an Unwrap that errors.Is
// calls and the helper of a kept declaration give no finding; unreached
// exported and unexported declarations, a keep without a reason and a
// keep on a reached declaration do.
func TestCheck(t *testing.T) {
	analysistest.Run(t, "../testdata", "unreachable")
}

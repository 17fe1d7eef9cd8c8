package plan_test

import (
	"testing"

	"mimdloop/internal/core"
	"mimdloop/internal/workload"
)

// BenchmarkValidate validates the plan BenchmarkServeCold serves: the
// first Table 1 loop for 250 iterations at k = 2 on sufficient
// processors, 3,000 placements.
func BenchmarkValidate(b *testing.B) {
	suite, err := workload.Suite()
	if err != nil {
		b.Fatal(err)
	}
	ls, err := core.ScheduleLoop(suite[0], core.Options{CommCost: 2}, 250)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ls.Full.Validate(true); err != nil {
			b.Fatal(err)
		}
	}
}

package monitor_test

import (
	"reflect"
	"testing"

	"rvgo/internal/conformance"
	"rvgo/internal/monitor"
)

// TestStatsMergeTouchesEveryCounter: Merge adds every field of a lane's
// Stats but Events, found by reflection — a counter added to Stats and not
// to Merge would otherwise read zero on every sharded and clustered run.
func TestStatsMergeTouchesEveryCounter(t *testing.T) {
	lane := conformance.DistinctStats(t) // field i holds 100+i
	sum := monitor.Stats{Events: 5}
	sum.Merge(lane)
	sum.Merge(lane)
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		var want any
		switch {
		case name == "Events":
			want = uint64(5) // the front's own count, never a lane's
		case sv.Field(i).Kind() == reflect.Uint64:
			want = uint64(2 * (100 + i))
		default:
			want = int64(2 * (100 + i))
		}
		if got := sv.Field(i).Interface(); got != want {
			t.Errorf("after merging two lanes %s = %v, want %v", name, got, want)
		}
	}
}

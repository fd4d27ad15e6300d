package experiments

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestFleetFootprintPerTenant is the footprint gate of macro-fleet: what one
// more Algorithm-2 controller costs in heap allocations and bytes, taken as
// the slope between two fleet sizes so the set-up the whole fleet shares
// (class frontiers, the account, the kernel) cancels out. A tenant is one
// entry of the fleet's slab; it embeds its scheduler, which holds its
// predictor, and the predictor its fitter, by value; the tenant calls
// Decide on it, with no bound controller; its window stores only losses, its
// epochs a view of the shared ramp; it holds its loss walk and owned random
// streams by value, outside the simulation's name map; its offline estimate
// runs on the stack; a restart decides without the heap. Before the compact
// record a tenant cost 35.0 allocations and about 2780 bytes here, with it
// 22.3 and about 2250, with a scheduler object of its own holding a Config
// copy 15.3 and about 1520, and now 13.3 and about 1360 (a -race build reads
// about 0.5 allocations and 60 bytes more). One object more per tenant, a
// pointer field split out again or a restart that escapes, reads 1.0 higher
// and fails the allocation bound. The slope cannot see a few bytes off the
// slab entry: both slabs round to the same size class and whole pages, so
// when the constraint copy left the tenant (536 to 520 bytes) the slope read
// 1361 bytes before and after. The entry's own size has a bound beside it.
func TestFleetFootprintPerTenant(t *testing.T) {
	footprint := func(tenants int) (mallocs, bytes float64) {
		run := func() {
			if _, _, err := macroFleet(2023, Config{FleetTenants: tenants, Shards: 1, Workers: 1}); err != nil {
				t.Fatal(err)
			}
		}
		mallocs = testing.AllocsPerRun(2, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return mallocs, float64(after.TotalAlloc - before.TotalAlloc)
	}
	const small, large = 48, 240
	smallM, smallB := footprint(small)
	largeM, largeB := footprint(large)
	perM := (largeM - smallM) / (large - small)
	perB := (largeB - smallB) / (large - small)
	t.Logf("per tenant: %.1f allocations, %.0f bytes", perM, perB)
	if perM > 14.25 {
		t.Errorf("a fleet tenant costs %.1f heap allocations, want <= 14.25", perM)
	}
	if perB > 1490 {
		t.Errorf("a fleet tenant costs %.0f heap bytes, want <= 1490", perB)
	}
	if size := unsafe.Sizeof(fleetTenant{}); size > 520 {
		t.Errorf("a fleet tenant's slab entry is %d bytes, want <= 520", size)
	}
}

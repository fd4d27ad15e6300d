package storage

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/pricing"
)

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{S3: "S3", DynamoDB: "DynamoDB", ElastiCache: "ElastiCache", VMPS: "VM-PS"}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), name)
		}
	}
	shorts := map[Kind]string{S3: "S", DynamoDB: "D", ElastiCache: "E", VMPS: "V"}
	for k, s := range shorts {
		if k.Short() != s {
			t.Errorf("Kind(%d).Short() = %q, want %q", int(k), k.Short(), s)
		}
	}
}

func TestAllReturnsFourDistinctServices(t *testing.T) {
	all := All()
	if len(all) != 4 {
		t.Fatalf("All returned %d services, want 4", len(all))
	}
	seen := map[Kind]bool{}
	for _, s := range all {
		if seen[s.kind] {
			t.Errorf("duplicate kind %v", s.kind)
		}
		seen[s.kind] = true
	}
}

func TestSyncTransfersPatterns(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		n    int
		want int
	}{
		{S3, 10, 28}, // 3n-2
		{DynamoDB, 10, 28},
		{ElastiCache, 10, 28},
		{VMPS, 10, 18}, // 2n-2
		{S3, 1, 0},     // single worker never synchronizes
		{VMPS, 1, 0},
	} {
		if got := New(tc.kind).SyncTransfers(tc.n); got != tc.want {
			t.Errorf("%v.SyncTransfers(%d) = %d, want %d", tc.kind, tc.n, got, tc.want)
		}
	}
}

func TestVMPSFewerTransfersThanStateless(t *testing.T) {
	if err := quick.Check(func(raw uint8) bool {
		n := int(raw%100) + 2
		return New(VMPS).SyncTransfers(n) < New(S3).SyncTransfers(n)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestDynamoObjectLimit(t *testing.T) {
	d := New(DynamoDB)
	if !d.Supports(0.1) {
		t.Error("DynamoDB should support a 100KB model")
	}
	if d.Supports(12) {
		t.Error("DynamoDB must reject a 12MB model (400KB item limit)")
	}
	for _, k := range []Kind{S3, ElastiCache, VMPS} {
		if !New(k).Supports(340) {
			t.Errorf("%v should support a 340MB model", k)
		}
	}
}

func TestLatencyOrdering(t *testing.T) {
	// Table I: S3 high, DynamoDB medium, ElastiCache/VM-PS low.
	s3, dy, ec, vm := New(S3), New(DynamoDB), New(ElastiCache), New(VMPS)
	if !(s3.Latency() > dy.Latency() && dy.Latency() > ec.Latency() && dy.Latency() > vm.Latency()) {
		t.Errorf("latency ordering violated: s3=%g dynamo=%g ec=%g vm=%g",
			s3.Latency(), dy.Latency(), ec.Latency(), vm.Latency())
	}
}

func TestSyncTimeMonotoneInModelSize(t *testing.T) {
	for _, s := range All() {
		if s.SyncTime(10, 1) >= s.SyncTime(10, 10) {
			t.Errorf("%v: SyncTime not increasing in model size", s.kind)
		}
	}
}

func TestSyncTimeMonotoneInWorkers(t *testing.T) {
	for _, s := range All() {
		if err := quick.Check(func(raw uint8) bool {
			n := int(raw%60) + 2
			return s.SyncTime(n, 1) < s.SyncTime(n+1, 1)
		}, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%v: %v", s.kind, err)
		}
	}
}

func TestSyncRequestCostOnlyForRequestCharged(t *testing.T) {
	for _, s := range All() {
		cost := s.SyncRequestCost(10, 0.1)
		if s.ChargeModel() == ByRequest && cost <= 0 {
			t.Errorf("%v: request-charged service has zero sync request cost", s.kind)
		}
		if s.ChargeModel() == ByRuntime && cost != 0 {
			t.Errorf("%v: runtime-charged service has nonzero request cost %g", s.kind, cost)
		}
	}
}

func TestRuntimeCostOnlyForRuntimeCharged(t *testing.T) {
	for _, s := range All() {
		cost := s.RuntimeCost(3600)
		if s.ChargeModel() == ByRuntime && cost <= 0 {
			t.Errorf("%v: runtime-charged service has zero runtime cost", s.kind)
		}
		if s.ChargeModel() == ByRequest && cost != 0 {
			t.Errorf("%v: request-charged service has nonzero runtime cost %g", s.kind, cost)
		}
	}
}

func TestSyncRequestsMatchPaperCount(t *testing.T) {
	// The paper's Eq. 5 bills (10n+2) requests per iteration for
	// request-charged storage.
	s3 := New(S3)
	if got := s3.SyncRequests(10); got != 102 {
		t.Errorf("S3.SyncRequests(10) = %d, want 102", got)
	}
	if got := New(VMPS).SyncRequests(10); got != 0 {
		t.Errorf("VM-PS.SyncRequests = %d, want 0", got)
	}
}

func TestDynamoSyncCostScalesWithModelSize(t *testing.T) {
	d := New(DynamoDB)
	small := d.SyncRequestCost(10, 0.01)
	big := d.SyncRequestCost(10, 0.4)
	if big <= small {
		t.Errorf("DynamoDB cost should grow with object size: %g vs %g", small, big)
	}
	// S3 charges per request regardless of size.
	s3 := New(S3)
	if s3.SyncRequestCost(10, 0.01) != s3.SyncRequestCost(10, 100) {
		t.Error("S3 per-request cost should not depend on object size")
	}
}

func TestProvisionDelayOnlyManualServices(t *testing.T) {
	for _, s := range All() {
		manual := s.kind == ElastiCache || s.kind == VMPS
		if manual && s.ProvisionDelay() <= 0 {
			t.Errorf("%v should have a provision delay", s.kind)
		}
		if !manual && s.ProvisionDelay() != 0 {
			t.Errorf("%v should not have a provision delay", s.kind)
		}
	}
}

func TestCharacterizeMatchesTableI(t *testing.T) {
	want := map[Kind]Characteristics{
		S3:          {Name: "S3", ElasticScaling: "Auto", LatencyClass: "High", PricingPattern: "Data request", CostClass: "$"},
		DynamoDB:    {Name: "DynamoDB", ElasticScaling: "Auto", LatencyClass: "Medium", PricingPattern: "Data request", CostClass: "$$"},
		ElastiCache: {Name: "ElastiCache", ElasticScaling: "Manual", LatencyClass: "Low", PricingPattern: "Execution time", CostClass: "$$$"},
		VMPS:        {Name: "VM-PS", ElasticScaling: "Manual", LatencyClass: "Low", PricingPattern: "Execution time", CostClass: "$$$"},
	}
	for _, s := range All() {
		if got := s.Characterize(); got != want[s.kind] {
			t.Errorf("%v.Characterize() = %+v, want %+v", s.kind, got, want[s.kind])
		}
	}
}

func TestLoadCost(t *testing.T) {
	if got, want := LoadCost(10), 10*pricing.S3GetRequest; math.Abs(got-want) > 1e-15 {
		t.Errorf("LoadCost(10) = %g, want %g", got, want)
	}
}

func TestTransferTimeIncludesLatency(t *testing.T) {
	s3 := New(S3)
	if got := s3.TransferTime(1, 0); got != s3.Latency() {
		t.Errorf("zero-byte transfer time = %g, want latency %g", got, s3.Latency())
	}
}

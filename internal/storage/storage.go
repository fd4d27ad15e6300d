// Package storage models the external storage services serverless ML
// workflows use for parameter synchronization: S3, DynamoDB, ElastiCache and
// a VM-based parameter server (VM-PS). Each service is described by its
// latency, bandwidth, pricing pattern (per-request vs per-runtime), object
// size limit and synchronization pattern, matching Table I and Fig. 5 of the
// paper:
//
//   - stateless services (S3, DynamoDB, ElastiCache) cannot aggregate, so a
//     synchronization of n functions serializes (3n-2) model-sized transfers:
//     a designated function must pull every gradient, aggregate, and re-upload
//     the global model for everyone to re-pull;
//   - VM-PS aggregates locally, so a synchronization costs (2n-2) transfers.
//
// The package holds models only: the simulated trainer times and bills each
// synchronization, load and checkpoint with them, and keeps its own
// checkpoint.
package storage

import (
	"fmt"

	"repro/internal/pricing"
)

// Kind identifies one of the four modeled services.
type Kind int

const (
	S3 Kind = iota
	DynamoDB
	ElastiCache
	VMPS
	// Pocket is an optional fifth service modeling Pocket-style elastic
	// ephemeral storage (Klimovic et al., OSDI'18 — the paper's [22]):
	// auto-scaling and low-latency like ElastiCache but request-charged at
	// a premium. Not part of the paper's evaluation; enabled by extended
	// grids only.
	Pocket
	numKinds
)

// Kinds lists the paper's four evaluated services in display order.
func Kinds() []Kind { return []Kind{S3, DynamoDB, ElastiCache, VMPS} }

// ExtendedKinds adds the optional Pocket service to the evaluated four.
func ExtendedKinds() []Kind { return []Kind{S3, DynamoDB, ElastiCache, VMPS, Pocket} }

func (k Kind) String() string {
	switch k {
	case S3:
		return "S3"
	case DynamoDB:
		return "DynamoDB"
	case ElastiCache:
		return "ElastiCache"
	case VMPS:
		return "VM-PS"
	case Pocket:
		return "Pocket"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Short returns the single-letter label the paper uses in Fig. 18.
func (k Kind) Short() string {
	switch k {
	case S3:
		return "S"
	case DynamoDB:
		return "D"
	case ElastiCache:
		return "E"
	case VMPS:
		return "V"
	case Pocket:
		return "P"
	default:
		return "?"
	}
}

// ChargeModel distinguishes the two pricing patterns of Eq. 5.
type ChargeModel int

const (
	// ByRequest bills each storage request (S3, DynamoDB).
	ByRequest ChargeModel = iota
	// ByRuntime bills wall-clock time the service is provisioned
	// (ElastiCache, VM-PS).
	ByRuntime
)

// Service is the performance/price model of one external storage service.
type Service struct {
	kind Kind

	// Stateless services follow the (3n-2) sync pattern; a parameter server
	// follows (2n-2).
	stateless bool

	// latency is the per-request latency in seconds.
	latency float64

	// perConnMBps is the bandwidth one client connection achieves, in MB/s.
	perConnMBps float64

	// aggregateMBps caps the total bandwidth across all concurrent clients
	// (a single VM's NIC, for example). Zero means the service auto-scales
	// and has no aggregate cap.
	aggregateMBps float64

	// maxObjectMB limits stored object size (DynamoDB's 400 KB item limit).
	// Zero means unlimited.
	maxObjectMB float64

	// provisionDelay is the time before a manually-scaled service is usable.
	provisionDelay float64

	charge ChargeModel
}

// models holds each service's model. S3: auto-scaling, high latency,
// request-charged. DynamoDB: auto-scaling, medium latency, request-charged,
// 400 KB object limit. ElastiCache: manually scaled, low latency,
// runtime-charged, in-memory bandwidth that holds up well under concurrency.
// VM-PS: manually scaled, low latency, runtime-charged, aggregates locally
// but bounded by one NIC. Pocket: auto-scaling ephemeral storage with
// in-memory latency, request-charged at a premium over S3.
var models = [numKinds]Service{
	S3:          {kind: S3, stateless: true, latency: 0.015, perConnMBps: 80, charge: ByRequest},
	DynamoDB:    {kind: DynamoDB, stateless: true, latency: 0.005, perConnMBps: 40, maxObjectMB: 0.4, charge: ByRequest},
	ElastiCache: {kind: ElastiCache, stateless: true, latency: 0.001, perConnMBps: 200, provisionDelay: 30, charge: ByRuntime},
	VMPS:        {kind: VMPS, latency: 0.0005, perConnMBps: 150, aggregateMBps: 3125, provisionDelay: 40, charge: ByRuntime},
	Pocket:      {kind: Pocket, stateless: true, latency: 0.0015, perConnMBps: 250, charge: ByRequest},
}

// New returns the model for kind: the package's one shared, read-only
// entry.
func New(kind Kind) *Service {
	if kind < 0 || kind >= numKinds {
		panic(fmt.Sprintf("storage: unknown kind %d", int(kind)))
	}
	return &models[kind]
}

// All returns one model per service kind, in display order.
func All() []*Service {
	ks := Kinds()
	out := make([]*Service, len(ks))
	for i, k := range ks {
		out[i] = New(k)
	}
	return out
}

// Name returns the human-readable service name.
func (s *Service) Name() string { return s.kind.String() }

// Stateless reports whether the service needs function-side aggregation
// (the (3n-2) pattern of Fig. 5).
func (s *Service) Stateless() bool { return s.stateless }

// ChargeModel reports how the service bills.
func (s *Service) ChargeModel() ChargeModel { return s.charge }

// ChargesByRequest reports whether the service bills per request rather than
// per provisioned runtime (the two pricing patterns of Eq. 5).
func (s *Service) ChargesByRequest() bool { return s.charge == ByRequest }

// Latency returns the per-request latency in seconds.
func (s *Service) Latency() float64 { return s.latency }

// ProvisionDelay returns the startup delay before a manually-scaled service
// is usable; zero for auto-scaling services.
func (s *Service) ProvisionDelay() float64 { return s.provisionDelay }

// Supports reports whether a model of modelMB fits the service's object
// size limit (the DynamoDB "N/A" cases in Table II and Fig. 18).
func (s *Service) Supports(modelMB float64) bool {
	return s.maxObjectMB == 0 || modelMB <= s.maxObjectMB
}

// rampFactor models multipart/parallel transfers: large objects are
// sharded across keys/connections, raising effective per-client bandwidth
// up to 4x, still subject to the service's aggregate capacity.
func rampFactor(sizeMB float64) float64 {
	r := 1 + sizeMB/64
	if r > 4 {
		r = 4
	}
	return r
}

// TransferTime returns the time to move one object of sizeMB between a
// function and the service, for one of n concurrent clients.
func (s *Service) TransferTime(n int, sizeMB float64) float64 {
	if n < 1 {
		n = 1
	}
	b := s.perConnMBps * rampFactor(sizeMB)
	if s.aggregateMBps > 0 {
		if shared := s.aggregateMBps / float64(n); shared < b {
			b = shared
		}
	}
	return sizeMB/b + s.latency
}

// SyncTransfers returns the number of serialized model-sized transfers one
// parameter synchronization of n functions requires (Eq. 3).
func (s *Service) SyncTransfers(n int) int {
	if n <= 1 {
		return 0
	}
	if s.stateless {
		return 3*n - 2
	}
	return 2*n - 2
}

// SyncTime returns the wall-clock time of one parameter synchronization of
// a model of modelMB across n functions (Eq. 3):
//
//	stateless: (3n-2) * (M/b_s + l_s)
//	VM-PS:     (2n-2) * (M/b_s + l_s)
func (s *Service) SyncTime(n int, modelMB float64) float64 {
	return float64(s.SyncTransfers(n)) * s.TransferTime(n, modelMB)
}

// SyncRequests returns the number of billable storage requests one
// synchronization issues. Beyond the 3n+1 data requests of the stateless
// pattern, workers poll for the aggregated model to appear, which the paper
// folds into its (10n+2)-requests-per-iteration cost term; we reproduce that
// count for request-charged services.
func (s *Service) SyncRequests(n int) int {
	if n <= 1 || s.charge != ByRequest {
		return 0
	}
	return 10*n + 2
}

// syncRequestMix splits SyncRequests into writes and reads: per sync there
// are n gradient PUTs plus 1 aggregated-model PUT; everything else (gradient
// pulls, model pulls, polling) is a read.
func (s *Service) syncRequestMix(n int) (writes, reads int) {
	total := s.SyncRequests(n)
	if total == 0 {
		return 0, 0
	}
	writes = n + 1
	reads = total - writes
	return writes, reads
}

// SyncRequestCost returns the $ cost of the requests of one synchronization
// for request-charged services; 0 for runtime-charged services.
func (s *Service) SyncRequestCost(n int, modelMB float64) float64 {
	writes, reads := s.syncRequestMix(n)
	if writes == 0 {
		return 0
	}
	switch s.kind {
	case DynamoDB:
		kb := modelMB * 1024
		return float64(writes)*pricing.DynamoWriteCost(kb) +
			float64(reads)*pricing.DynamoReadCost(kb)
	case Pocket:
		// Premium per-request pricing buys the in-memory latency.
		return 5 * (float64(writes)*pricing.S3PutRequest +
			float64(reads)*pricing.S3GetRequest)
	default: // S3 and any future request-charged service
		return float64(writes)*pricing.S3PutRequest +
			float64(reads)*pricing.S3GetRequest
	}
}

// RuntimeCost returns the $ cost of keeping a runtime-charged service
// provisioned for seconds; 0 for request-charged services.
func (s *Service) RuntimeCost(seconds float64) float64 {
	if s.charge != ByRuntime {
		return 0
	}
	switch s.kind {
	case ElastiCache:
		return pricing.HourlyCost(pricing.ElastiCacheNodeHour, seconds)
	case VMPS:
		return pricing.HourlyCost(pricing.VMHour, seconds)
	default:
		return 0
	}
}

// LoadMBps is B_S3 of Eq. 2: the bandwidth, in MB/s, at which each function
// loads its dataset partition from S3.
const LoadMBps float64 = 80

// LoadCost returns the $ cost of the initial dataset load: each of n
// functions issues one GET against S3 regardless of the sync service (the
// paper keeps training data in S3; Eq. 2's load term uses B_S3).
func LoadCost(n int) float64 {
	return float64(n) * pricing.S3GetRequest
}

// Characteristics summarizes a service for Table I.
type Characteristics struct {
	Name           string
	ElasticScaling string // "Auto" or "Manual"
	LatencyClass   string // "Low", "Medium", "High"
	PricingPattern string // "Data request" or "Execution time"
	CostClass      string // "$", "$$", "$$$"
}

// Characterize returns the Table I row for the service.
func (s *Service) Characterize() Characteristics {
	c := Characteristics{Name: s.Name()}
	if s.provisionDelay > 0 {
		c.ElasticScaling = "Manual"
	} else {
		c.ElasticScaling = "Auto"
	}
	switch {
	case s.latency >= 0.015:
		c.LatencyClass = "High"
	case s.latency >= 0.003:
		c.LatencyClass = "Medium"
	default:
		c.LatencyClass = "Low"
	}
	if s.charge == ByRequest {
		c.PricingPattern = "Data request"
	} else {
		c.PricingPattern = "Execution time"
	}
	switch s.kind {
	case S3:
		c.CostClass = "$"
	case DynamoDB, Pocket:
		c.CostClass = "$$"
	default:
		c.CostClass = "$$$"
	}
	return c
}

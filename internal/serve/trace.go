package serve

import (
	"strconv"
	"time"

	"pelta/internal/obs"
	"pelta/internal/tensor"
)

// TraceConfig enables request tracing on a Service.
type TraceConfig struct {
	// Sample is the fraction of requests traced systematically (1.0 =
	// every request, 0.25 = every 4th, 0 = none). Anomalies — shed,
	// rejected, errored, or flagged requests — are always traced
	// regardless of Sample, so the tail is never lost.
	Sample float64
	// Cap bounds the retained span ring (default obs.DefaultTraceCap).
	Cap int
}

// initObservability builds the tracer, kernel stats, and registry for a
// newly constructed service. Tracing (and the kernel-boundary hook) only
// arm when cfg.Trace is non-nil; the registry is always available.
func (s *Service) initObservability() {
	if s.cfg.Trace != nil {
		s.tracer = obs.NewTracer(s.cfg.Clock, s.cfg.Trace.Cap, obs.SampleEvery(s.cfg.Trace.Sample))
		s.kernels = &obs.KernelStats{}
		clock := s.cfg.Clock
		kernels := s.kernels
		tensor.SetKernelHook(&tensor.KernelHook{
			Now: clock.Now,
			Observe: func(op tensor.KernelOp, d time.Duration) {
				kernels.Add(int(op), d.Nanoseconds())
			},
		})
		s.hookOwner = true
	}

	s.registry = obs.NewRegistry()
	s.registry.Register("serve", s.metrics.Collect)
	s.registry.Register("queue", func() []obs.Metric {
		// Read the way autoscaler.step reads it, inside the service lock.
		// Admission holds that lock shared from the offered bump to the
		// queue send, so once the gauge reads, every request the offered
		// counter already showed has been queued or refused.
		s.mu.Lock()
		depth := len(s.queue)
		s.mu.Unlock()
		return []obs.Metric{obs.Gauge("pelta_queue_depth", "Admitted requests waiting in the admission queue (the autoscaler's load signal).", float64(depth), nil)}
	})
	if s.det != nil {
		det, clock := s.det, s.cfg.Clock
		s.registry.Register("detect", func() []obs.Metric {
			st := det.Stats(clock.Now())
			return []obs.Metric{
				obs.Gauge("pelta_detect_clients", "Clients with a live similarity cache.", float64(st.Clients), nil),
				obs.Gauge("pelta_detect_flagged_clients", "Clients whose probe flag is currently active.", float64(st.FlaggedClients), nil),
				obs.Counter("pelta_detect_observed_total", "Queries fingerprinted by the detector.", float64(st.Observed), nil),
				obs.Counter("pelta_detect_hits_total", "Near-duplicate matches scored by the detector.", float64(st.Hits), nil),
				obs.Counter("pelta_detect_flagged_queries_total", "Queries observed under an active flag.", float64(st.FlaggedQueries), nil),
				obs.Counter("pelta_detect_flag_events_total", "Unflagged-to-flagged transitions.", float64(st.FlagEvents), nil),
			}
		})
	}
	if s.kernels != nil {
		s.registry.Register("kernels", s.kernels.Metrics)
	}
	pool := s.pool
	s.registry.Register("tee", func() []obs.Metric { return enclaveMetrics(pool) })
}

// enclaveMetrics renders per-replica enclave-ceiling headroom gauges for
// every shielded replica in the pool (clear replicas contribute nothing).
func enclaveMetrics(pool *ReplicaPool) []obs.Metric {
	var out []obs.Metric
	for i, rep := range pool.replicas {
		sr, ok := rep.(*ShieldedReplica)
		if !ok {
			continue
		}
		enc := sr.SM.Enclave()
		if enc == nil {
			continue
		}
		l := map[string]string{"replica": strconv.Itoa(i)}
		tm := enc.Metrics()
		out = append(out,
			obs.Gauge("pelta_enclave_used_bytes", "Secure memory currently held by the replica's enclave.", float64(enc.Used()), l),
			obs.Gauge("pelta_enclave_limit_bytes", "Secure-memory ceiling of the replica's enclave.", float64(enc.Limit()), l),
			obs.Gauge("pelta_enclave_free_bytes", "Secure-memory headroom under the replica's enclave ceiling.", float64(enc.Free()), l),
			obs.Counter("pelta_enclave_world_switches_total", "Normal-to-secure world switches performed by the enclave.", float64(tm.WorldSwitches), l),
			obs.Counter("pelta_enclave_bytes_in_total", "Bytes copied into the enclave.", float64(tm.BytesIn), l),
			obs.Counter("pelta_enclave_bytes_out_total", "Bytes copied out of the enclave.", float64(tm.BytesOut), l),
			obs.Counter("pelta_enclave_overhead_ns_total", "Modelled world-switch and transfer overhead in nanoseconds.", float64(tm.SimulatedOverhead.Nanoseconds()), l),
		)
	}
	return out
}

// Tracer exposes the request tracer, or nil when Config.Trace is unset —
// the nil tracer is the documented "tracing disabled" state.
func (s *Service) Tracer() *obs.Tracer { return s.tracer }

// KernelStats exposes the accumulated kernel-boundary totals, or nil when
// tracing is disabled.
func (s *Service) KernelStats() *obs.KernelStats { return s.kernels }

// Registry exposes the service's telemetry registry (serve counters and
// quantiles, probe-detector stats, kernel totals, and per-replica enclave
// gauges) for Prometheus exposition.
func (s *Service) Registry() *obs.Registry { return s.registry }

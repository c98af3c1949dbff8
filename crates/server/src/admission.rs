//! Admission: whether a job may go on the shared queue. A tenant at its
//! in-flight budget (`--tenant-budget`) is refused before the shared
//! queue is touched; then one compare-exchange bounds the queue depth
//! (`--queue`), which workers drop on dequeue. Either refusal is the same
//! `Busy{queued, capacity}`, naming the bound that held.

use crate::protocol::{Response, MAX_TENANTS};
use crate::server::Server;
use recloud_obs::{Counter, Histogram, Registry};
use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Per-tenant serving state, minted on first sight of a tenant id. The
/// instruments live in the server registry, so a `MetricsDump` carries
/// per-tenant series without any wire change. Reactor-thread only.
pub(crate) struct Tenant {
    pub requests_total: Arc<Counter>,
    pub busy_total: Arc<Counter>,
    pub latency_us: Arc<Histogram>,
    /// Admitted, unfinished jobs — what the budget bounds.
    inflight: Cell<usize>,
}

impl Tenant {
    pub fn new(registry: &Registry, name: &str) -> Tenant {
        Tenant {
            requests_total: registry.counter(&format!("tenant.{name}.requests_total")),
            busy_total: registry.counter(&format!("tenant.{name}.busy_total")),
            latency_us: registry.histogram(&format!("tenant.{name}.latency_us")),
            inflight: Cell::new(0),
        }
    }

    /// One of the tenant's admitted jobs answered with its final frame.
    pub fn release(&self) {
        self.inflight.set(self.inflight.get().saturating_sub(1));
    }
}

/// The two-level admission gate and the tenant table behind it.
pub(crate) struct Admission<'a> {
    srv: &'a Server,
    tenants: HashMap<String, Rc<Tenant>>,
}

impl<'a> Admission<'a> {
    pub fn new(srv: &'a Server) -> Admission<'a> {
        Admission { srv, tenants: HashMap::new() }
    }

    /// The state of tenant `name`, minted on first sight.
    pub fn tenant(&mut self, name: &str) -> Rc<Tenant> {
        let registry = &self.srv.obs.registry;
        let tenant = self.tenants.entry(name.to_string());
        tenant.or_insert_with(|| Rc::new(Tenant::new(registry, name))).clone()
    }

    /// [`Admission::tenant`] for a `Hello`, refused when it would mint
    /// tenant number [`MAX_TENANTS`] + 1: every tenant is three
    /// instruments in every `Metrics` frame, and that frame must stay
    /// sendable. Only `Hello` mints tenants past the first, so only
    /// `Hello` is capped; the default tenant is always there to serve under.
    pub fn hello(&mut self, name: &str) -> Result<Rc<Tenant>, String> {
        if !self.tenants.contains_key(name) && self.tenants.len() >= MAX_TENANTS {
            return Err(format!(
                "this daemon already serves {MAX_TENANTS} tenants; {name:?} would be one more"
            ));
        }
        Ok(self.tenant(name))
    }

    /// Takes a queue slot for one of `tenant`'s jobs, or answers `Busy`.
    pub fn admit(&self, tenant: &Tenant) -> Result<(), Response> {
        let srv = self.srv;
        let capacity = srv.config.queue_capacity;
        let (queued, bound) = match srv.config.tenant_budget {
            Some(budget) if tenant.inflight.get() >= budget => (tenant.inflight.get(), budget),
            _ => match srv.depth.fetch_update(Ordering::AcqRel, Ordering::Acquire, |d| {
                (d < capacity).then_some(d + 1)
            }) {
                Ok(_) => {
                    srv.obs.queue_depth.add(1);
                    tenant.inflight.set(tenant.inflight.get() + 1);
                    return Ok(());
                }
                Err(depth) => (depth, capacity),
            },
        };
        srv.obs.busy_rejections.inc();
        tenant.busy_total.inc();
        Err(Response::Busy { queued: queued as u32, capacity: bound as u32 })
    }

    /// Hands back a slot [`Admission::admit`] took for a job that never
    /// reached the queue.
    pub fn unadmit(&self, tenant: &Tenant) {
        self.srv.dequeued();
        tenant.release();
    }
}

//! The in-process client session the `Service` suites drive tenants
//! with.

use rv_monitor::core::service::Reject;
use rv_monitor::core::Service;

/// One client session of a tenant on an in-process [`Service`]: numbers
/// its lines with a contiguous `cseq`, exactly as a wire client stamps
/// its `EVENT_SEQ` frames, so every line takes the server's dedup and
/// gap-strict path. The feeder holds no borrow of the service, so one
/// session can outlive a daemon restart and resume past its durable
/// high-water mark.
pub struct Feeder {
    tenant: String,
    session: u64,
    next_cseq: u64,
    /// The cseq the last barrier acknowledged as durable.
    acked: u64,
    /// Wire-read span reported with every line, as a connection loop
    /// would measure it.
    pub wire_ns: u64,
}

impl Feeder {
    /// A fresh session `session` of `tenant`, starting at cseq 1.
    pub fn new(tenant: &str, session: u64) -> Feeder {
        Feeder { tenant: tenant.to_owned(), session, next_cseq: 1, acked: 0, wire_ns: 0 }
    }

    /// Submits `line` as the session's next cseq. The cseq advances only
    /// on `Ok`, as `ResilientClient`'s resend window does: a shed (431)
    /// or paused (503) line is resubmitted under the same cseq by the
    /// next call, never left behind as a gap.
    pub fn submit(&mut self, svc: &Service, line: &str) -> Result<(), Reject> {
        svc.submit(&self.tenant, self.session, self.next_cseq, line, self.wire_ns)?;
        self.next_cseq += 1;
        Ok(())
    }

    /// [`Feeder::submit`] that panics on a reject.
    pub fn send(&mut self, svc: &Service, line: &str) {
        self.submit(svc, line)
            .unwrap_or_else(|e| panic!("submit `{line}` to `{}`: {e:?}", self.tenant));
    }

    /// The cseq the next submitted line carries.
    pub fn next_cseq(&self) -> u64 {
        self.next_cseq
    }

    /// Asks the tenant for the session's contiguous high-water mark,
    /// syncing everything submitted before. Panics on a reject.
    fn hwm(&self, svc: &Service) -> u64 {
        let token = self.next_cseq;
        let (echoed, hwm) = svc
            .sync(&self.tenant, token, self.session)
            .unwrap_or_else(|e| panic!("sync `{}`: {e:?}", self.tenant));
        assert_eq!(echoed, token, "barrier echoed another token");
        hwm
    }

    /// The session's durability barrier. Panics on a reject, and unless
    /// every line submitted so far is durable.
    pub fn barrier(&mut self, svc: &Service) {
        let hwm = self.hwm(svc);
        assert_eq!(hwm, self.next_cseq - 1, "tenant `{}` has a cseq gap", self.tenant);
        self.acked = hwm;
    }

    /// Reattaches the session after a daemon restart, as a resilient
    /// client does: it resends from its last barrier, or from the
    /// tenant's recovered high-water mark + 1 when the crash took lines
    /// the barrier had acknowledged. Returns that mark.
    pub fn resume(&mut self, svc: &Service) -> u64 {
        let hwm = self.hwm(svc);
        self.acked = self.acked.min(hwm);
        self.next_cseq = self.acked + 1;
        hwm
    }
}

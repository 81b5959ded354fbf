//! A per-repetition deadline. A repetition that outlives it has wedged
//! (a worker parked forever on the sync gate, a peer that never fins):
//! the watchdog prints the flight record of every parameter server the
//! repetition built, then hands control to `on_fire`, which reports the
//! run as failed and ends the process instead of hanging the caller.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nups_sim::trace::Observability;

#[derive(Default)]
struct State {
    deadline: Option<Instant>,
    obs: Vec<Arc<Observability>>,
    stop: bool,
}

pub struct Watchdog {
    shared: Arc<(Mutex<State>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn start(on_fire: impl FnOnce() + Send + 'static) -> Watchdog {
        let shared = Arc::new((Mutex::new(State::default()), Condvar::new()));
        let bg = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("perfbench-watchdog".into())
            .spawn(move || {
                let (lock, cv) = &*bg;
                let mut st = lock.lock().unwrap();
                loop {
                    if st.stop {
                        return;
                    }
                    match st.deadline {
                        None => st = cv.wait(st).unwrap(),
                        Some(d) if Instant::now() < d => {
                            st = cv.wait_timeout(st, d - Instant::now()).unwrap().0;
                        }
                        Some(_) => break,
                    }
                }
                for obs in &st.obs {
                    eprintln!("{}", obs.flight_record("repetition exceeded its watchdog deadline"));
                }
                drop(st);
                on_fire();
            })
            .expect("spawn watchdog thread");
        Watchdog { shared, thread: Some(thread) }
    }

    fn update(&self, f: impl FnOnce(&mut State)) {
        let (lock, cv) = &*self.shared;
        f(&mut lock.lock().unwrap());
        cv.notify_all();
    }

    /// Start a repetition's deadline, forgetting the previous one's servers.
    pub fn arm(&self, budget: Duration) {
        self.update(|st| {
            st.deadline = Some(Instant::now() + budget);
            st.obs.clear();
        });
    }

    /// Include `obs`'s flight record if the current repetition wedges.
    pub fn watch(&self, obs: &Arc<Observability>) {
        self.update(|st| st.obs.push(Arc::clone(obs)));
    }

    pub fn disarm(&self) {
        self.update(|st| {
            st.deadline = None;
            st.obs.clear();
        });
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.update(|st| st.stop = true);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn fires_after_the_deadline_and_not_when_disarmed() {
        let (tx, rx) = mpsc::channel();
        let wd = Watchdog::start(move || tx.send(()).unwrap());
        wd.arm(Duration::from_millis(30));
        wd.disarm();
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err(), "disarmed watchdog fired");
        wd.watch(&Arc::new(Observability::new()));
        wd.arm(Duration::from_millis(20));
        assert!(rx.recv_timeout(Duration::from_secs(5)).is_ok(), "armed watchdog never fired");
    }
}

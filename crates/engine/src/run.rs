//! Run sessions: the one lifecycle through which the CLI's `sweep` and
//! `campaign` and the [`crate::serve`] API open, journal and execute a
//! sweep.

use crate::journal::SweepJournal;
use crate::{Engine, EngineError, JobEvent, SweepOptions, SweepOutcome, SweepPlan};
use std::path::Path;
use std::sync::atomic::AtomicBool;

/// One opened sweep run: a checked plan under its run id and, when
/// journaled, the journal holding its run lock (released on drop).
#[derive(Debug)]
pub struct RunSession {
    id: String,
    plan: SweepPlan,
    journal: Option<SweepJournal>,
    journaled: usize,
}

impl RunSession {
    /// Opens a fresh run. The plan is checked first, so a bad plan
    /// leaves nothing under `runs/`. The run is journaled exactly when
    /// there is a cache directory *and* a disk store to resume from.
    ///
    /// # Errors
    ///
    /// [`Engine::check_plan`]'s errors, then [`SweepJournal::create`]'s:
    /// [`EngineError::RunInFlight`] or [`EngineError::Persistence`].
    pub fn open(
        engine: &Engine,
        plan: SweepPlan,
        cache_dir: Option<&Path>,
    ) -> Result<Self, EngineError> {
        engine.check_plan(&plan)?;
        let id = plan.run_id();
        let journal = cache_dir
            .filter(|_| engine.store().is_some())
            .map(|dir| SweepJournal::create(SweepJournal::path_for(dir, &id), &plan))
            .transpose()?;
        Ok(Self {
            id,
            plan,
            journal,
            journaled: 0,
        })
    }

    /// Reopens the journaled run `run_id`, reloading its plan.
    ///
    /// # Errors
    ///
    /// [`SweepJournal::resume`]'s errors.
    pub fn resume(cache_dir: &Path, run_id: &str) -> Result<Self, EngineError> {
        let (journal, state) = SweepJournal::resume(SweepJournal::path_for(cache_dir, run_id))?;
        Ok(Self {
            id: state.plan.run_id(),
            plan: state.plan,
            journal: Some(journal),
            journaled: state.done.len(),
        })
    }

    /// The run id ([`SweepPlan::run_id`]).
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The run's plan.
    #[must_use]
    pub fn plan(&self) -> &SweepPlan {
        &self.plan
    }

    /// Where the run is journaled; `None` for an unjournaled run.
    #[must_use]
    pub fn journal_path(&self) -> Option<&Path> {
        self.journal.as_ref().map(SweepJournal::path)
    }

    /// Grid points journaled before this session opened the run.
    #[must_use]
    pub fn journaled(&self) -> usize {
        self.journaled
    }

    /// Executes the run with the caller's [`SweepOptions`] `limit` and
    /// `cancel`. Each successful job is journaled before `on_job` sees
    /// it; a recovered journal poisoning is reported once, on stderr.
    ///
    /// # Errors
    ///
    /// Plan-level problems only, as for [`Engine::sweep_with`].
    pub fn execute(
        &self,
        engine: &Engine,
        limit: Option<usize>,
        cancel: Option<&AtomicBool>,
        on_job: &(dyn Fn(&JobEvent<'_>) + Sync),
    ) -> Result<SweepOutcome, EngineError> {
        let on_done = |event: &JobEvent<'_>| {
            if let (true, Some(journal)) = (event.ok, &self.journal) {
                journal.record(event.index, event.key);
            }
            on_job(event);
        };
        let options = SweepOptions {
            limit,
            on_done: Some(&on_done),
            cancel,
        };
        let outcome = engine.sweep_with(&self.plan, &options);
        // The sweep finished and the journal kept flushing, but a job
        // that panicked while appending still deserves one line.
        if let Some(poisoned) = self.journal.as_ref().and_then(SweepJournal::poison_error) {
            eprintln!("warning: {poisoned}");
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TempDir;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn plan() -> SweepPlan {
        SweepPlan::new("fig4b")
            .fix("ecd", 35.0)
            .axis("pitch", vec![90.0, 120.0])
    }

    #[test]
    fn a_rejected_plan_leaves_no_journal() {
        let dir = TempDir::new("run-reject");
        let engine = Engine::standard().with_disk_cache(&dir.0).unwrap();
        for bad in [
            SweepPlan::new("fig4x").axis("pitch", vec![90.0]),
            SweepPlan::new("fig4b").axis("pitchx", vec![90.0]),
            SweepPlan::new("fig4b").fix("ecdx", 35.0),
            SweepPlan::new("fig4b").axis("pitch", vec![]),
        ] {
            assert!(RunSession::open(&engine, bad, Some(&dir.0)).is_err());
        }
        assert!(!dir.0.join("runs").exists(), "no debris under runs/");
    }

    #[test]
    fn runs_are_journaled_only_with_a_directory_and_a_store() {
        let dir = TempDir::new("run-rule");
        let memory = Engine::standard();
        let run = RunSession::open(&memory, plan(), Some(&dir.0)).unwrap();
        assert_eq!(run.journal_path(), None);
        assert_eq!(run.id(), plan().run_id());

        let disk = Engine::standard().with_disk_cache(&dir.0).unwrap();
        assert!(RunSession::open(&disk, plan(), None)
            .unwrap()
            .journal_path()
            .is_none());
        let run = RunSession::open(&disk, plan(), Some(&dir.0)).unwrap();
        assert_eq!(
            run.journal_path(),
            Some(SweepJournal::path_for(&dir.0, run.id()).as_path())
        );
        // The open run holds the run lock.
        assert!(matches!(
            RunSession::open(&disk, plan(), Some(&dir.0)),
            Err(EngineError::RunInFlight { .. })
        ));
    }

    #[test]
    fn successful_jobs_are_journaled_before_the_hook_and_resume_sees_them() {
        let dir = TempDir::new("run-resume");
        let engine = Engine::standard()
            .with_workers(1)
            .with_disk_cache(&dir.0)
            .unwrap();
        let run = RunSession::open(&engine, plan(), Some(&dir.0)).unwrap();
        let path = run.journal_path().unwrap().to_owned();
        let seen = AtomicUsize::new(0);
        let on_job = |event: &JobEvent<'_>| {
            let text = std::fs::read_to_string(&path).unwrap();
            let line = format!("done {} ", event.index);
            assert_eq!(text.contains(&line), event.ok, "{text}");
            seen.fetch_add(1, Ordering::Relaxed);
        };
        let outcome = run.execute(&engine, Some(1), None, &on_job).unwrap();
        assert_eq!((outcome.skipped, seen.load(Ordering::Relaxed)), (1, 2));
        drop(run);

        let resumed = RunSession::resume(&dir.0, &plan().run_id()).unwrap();
        assert_eq!((resumed.journaled(), resumed.plan()), (1, &plan()));
        let outcome = resumed.execute(&engine, None, None, &|_| {}).unwrap();
        assert_eq!((outcome.skipped, outcome.errors), (0, 0));
    }
}

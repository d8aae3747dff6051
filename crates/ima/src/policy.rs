//! IMA measurement policy: which events get measured.
//!
//! Mirrors the shape of `/etc/ima/ima-policy` rules: each rule matches on
//! the hook (function) and optionally a path prefix and UID, with
//! `measure` or `dont_measure` actions evaluated first-match-wins.

/// The kernel hook where a measurement event originates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImaHook {
    /// Binary execution (`bprm_check`).
    BprmCheck,
    /// Executable memory mapping (`file_mmap`).
    FileMmap,
    /// Kernel module load (`module_check`).
    ModuleCheck,
    /// Reads by root-owned daemons (`file_check` approximation).
    FileCheck,
}

/// A measurement-relevant event on the host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasureEvent {
    pub hook: ImaHook,
    /// Absolute path of the accessed file.
    pub path: String,
    /// Effective UID of the accessing process.
    pub uid: u32,
}

impl MeasureEvent {
    pub fn exec(path: &str) -> MeasureEvent {
        MeasureEvent {
            hook: ImaHook::BprmCheck,
            path: path.to_string(),
            uid: 0,
        }
    }

    pub fn mmap(path: &str) -> MeasureEvent {
        MeasureEvent {
            hook: ImaHook::FileMmap,
            path: path.to_string(),
            uid: 0,
        }
    }
}

/// The action a rule prescribes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleAction {
    Measure,
    DontMeasure,
}

/// One policy rule (first match wins).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyRule {
    pub action: RuleAction,
    /// Match only this hook, or any when `None`.
    pub hook: Option<ImaHook>,
    /// Match paths with this prefix, or any when `None`.
    pub path_prefix: Option<String>,
    /// Match only this UID, or any when `None`.
    pub uid: Option<u32>,
}

impl PolicyRule {
    pub fn measure() -> PolicyRule {
        PolicyRule {
            action: RuleAction::Measure,
            hook: None,
            path_prefix: None,
            uid: None,
        }
    }

    pub fn dont_measure() -> PolicyRule {
        PolicyRule {
            action: RuleAction::DontMeasure,
            hook: None,
            path_prefix: None,
            uid: None,
        }
    }

    pub fn on_hook(mut self, hook: ImaHook) -> PolicyRule {
        self.hook = Some(hook);
        self
    }

    pub fn under(mut self, prefix: &str) -> PolicyRule {
        self.path_prefix = Some(prefix.to_string());
        self
    }

    pub fn for_uid(mut self, uid: u32) -> PolicyRule {
        self.uid = Some(uid);
        self
    }

    fn matches(&self, event: &MeasureEvent) -> bool {
        if let Some(hook) = self.hook {
            if hook != event.hook {
                return false;
            }
        }
        if let Some(prefix) = &self.path_prefix {
            if !event.path.starts_with(prefix.as_str()) {
                return false;
            }
        }
        if let Some(uid) = self.uid {
            if uid != event.uid {
                return false;
            }
        }
        true
    }
}

/// An ordered rule list.
#[derive(Debug, Clone, Default)]
pub struct ImaPolicy {
    rules: Vec<PolicyRule>,
}

impl ImaPolicy {
    /// Empty policy: nothing is measured.
    pub fn empty() -> ImaPolicy {
        ImaPolicy::default()
    }

    /// The classic `ima_tcb`-style policy: measure all executions and
    /// executable mappings, skip the pseudo filesystems.
    pub fn tcb() -> ImaPolicy {
        ImaPolicy {
            rules: vec![
                PolicyRule::dont_measure().under("/proc"),
                PolicyRule::dont_measure().under("/sys"),
                PolicyRule::dont_measure().under("/dev"),
                PolicyRule::measure().on_hook(ImaHook::BprmCheck),
                PolicyRule::measure().on_hook(ImaHook::FileMmap),
                PolicyRule::measure().on_hook(ImaHook::ModuleCheck),
                PolicyRule::measure().on_hook(ImaHook::FileCheck).for_uid(0),
            ],
        }
    }

    /// A container-host policy that additionally measures everything under
    /// the container runtime's image store.
    pub fn container_host() -> ImaPolicy {
        let mut policy = ImaPolicy::tcb();
        policy
            .rules
            .insert(3, PolicyRule::measure().under("/var/lib/docker"));
        policy
    }

    pub fn push(&mut self, rule: PolicyRule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Should `event` be measured? First matching rule decides; events with
    /// no matching rule are not measured.
    pub fn should_measure(&self, event: &MeasureEvent) -> bool {
        for rule in &self.rules {
            if rule.matches(event) {
                return rule.action == RuleAction::Measure;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_policy_measures_nothing() {
        let policy = ImaPolicy::empty();
        assert!(!policy.should_measure(&MeasureEvent::exec("/usr/bin/vnf")));
    }

    #[test]
    fn tcb_measures_executions() {
        let policy = ImaPolicy::tcb();
        assert!(policy.should_measure(&MeasureEvent::exec("/usr/bin/vnf")));
        assert!(policy.should_measure(&MeasureEvent::mmap("/usr/lib/libssl.so")));
    }

    #[test]
    fn tcb_skips_pseudo_filesystems() {
        let policy = ImaPolicy::tcb();
        assert!(!policy.should_measure(&MeasureEvent::exec("/proc/self/exe")));
        assert!(!policy.should_measure(&MeasureEvent::mmap("/sys/kernel/thing")));
        assert!(!policy.should_measure(&MeasureEvent::exec("/dev/shm/x")));
    }

    #[test]
    fn first_match_wins() {
        let mut policy = ImaPolicy::empty();
        policy
            .push(PolicyRule::dont_measure().under("/opt/skip"))
            .push(PolicyRule::measure().under("/opt"));
        assert!(!policy.should_measure(&MeasureEvent::exec("/opt/skip/tool")));
        assert!(policy.should_measure(&MeasureEvent::exec("/opt/other/tool")));
    }

    #[test]
    fn uid_scoping() {
        let mut policy = ImaPolicy::empty();
        policy.push(PolicyRule::measure().on_hook(ImaHook::FileCheck).for_uid(0));
        let mut event = MeasureEvent {
            hook: ImaHook::FileCheck,
            path: "/etc/passwd".into(),
            uid: 0,
        };
        assert!(policy.should_measure(&event));
        event.uid = 1000;
        assert!(!policy.should_measure(&event));
    }

    #[test]
    fn container_host_measures_image_store() {
        let policy = ImaPolicy::container_host();
        let event = MeasureEvent {
            hook: ImaHook::FileCheck,
            path: "/var/lib/docker/overlay2/abc/layer.tar".into(),
            uid: 1000,
        };
        assert!(policy.should_measure(&event));
        assert!(policy.rule_count() > ImaPolicy::tcb().rule_count());
    }
}

//! The container host: runs containers and feeds the IMA measurement list.

use crate::image::Image;
use crate::ContainerError;
use vnfguard_ima::list::MeasurementList;
use vnfguard_ima::policy::{ImaPolicy, MeasureEvent};

/// Lifecycle state of a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    Running,
    Stopped,
}

impl ContainerState {
    fn as_str(self) -> &'static str {
        match self {
            ContainerState::Running => "running",
            ContainerState::Stopped => "stopped",
        }
    }
}

/// A deployed container instance.
#[derive(Debug, Clone)]
pub struct Container {
    pub id: String,
    pub image_reference: String,
    pub image_digest: [u8; 32],
    pub state: ContainerState,
    /// The enclave image carried in the container (if enclave-guarded).
    pub enclave_image: Option<Vec<u8>>,
}

/// The measured container host: OS components + container runtime + IMA.
pub struct ContainerHost {
    pub hostname: String,
    policy: ImaPolicy,
    ima: MeasurementList,
    containers: Vec<Container>,
    next_container: u64,
}

impl ContainerHost {
    /// Boot a host. `os_components` are (path, content) pairs measured at
    /// boot per policy — the kernel, the container runtime, system daemons.
    pub fn boot(
        hostname: &str,
        policy: ImaPolicy,
        os_components: &[(&str, &[u8])],
    ) -> ContainerHost {
        let mut host = ContainerHost {
            hostname: hostname.to_string(),
            policy,
            ima: MeasurementList::new(hostname.as_bytes()),
            containers: Vec::new(),
            next_container: 1,
        };
        for (path, content) in os_components {
            host.measure_exec(path, content);
        }
        host
    }

    /// A host with the standard trusted software stack of the paper's demo
    /// (Ubuntu 16.04 + Docker 1.12.2).
    pub fn standard(hostname: &str) -> ContainerHost {
        ContainerHost::boot(
            hostname,
            ImaPolicy::container_host(),
            &[
                ("/boot/vmlinuz-4.4.0-51-generic", b"kernel 4.4.0-51"),
                ("/usr/bin/dockerd", b"docker daemon 1.12.2"),
                ("/usr/bin/containerd", b"containerd 0.2.x"),
                ("/sbin/init", b"systemd 229"),
            ],
        )
    }

    fn measure_exec(&mut self, path: &str, content: &[u8]) {
        if self.policy.should_measure(&MeasureEvent::exec(path)) {
            self.ima.measure_file(path, content);
        }
    }

    /// The host's current measurement list (what the integrity attestation
    /// enclave reads and quotes).
    pub fn measurement_list(&self) -> &MeasurementList {
        &self.ima
    }

    /// Start a container from a pulled image. Every layer and the
    /// entrypoint are measured under the image store path, then the
    /// entrypoint is measured as an execution.
    pub fn run(&mut self, image: &Image) -> Result<&Container, ContainerError> {
        if !image.verify() {
            return Err(ContainerError::DigestMismatch { layer: 0 });
        }
        let id = format!("ct-{:04}", self.next_container);
        self.next_container += 1;
        for (i, layer) in image.layers.iter().enumerate() {
            let path = format!("/var/lib/docker/overlay2/{id}/layer-{i}");
            if self.policy.should_measure(&MeasureEvent::exec(&path)) {
                self.ima.measure_file(&path, &layer.content);
            }
        }
        let entry_path = format!("/var/lib/docker/overlay2/{id}/entrypoint");
        self.measure_exec(&entry_path, &image.entrypoint.content);

        self.containers.push(Container {
            id,
            image_reference: image.reference(),
            image_digest: image.digest(),
            state: ContainerState::Running,
            enclave_image: image.enclave_image.clone(),
        });
        Ok(self.containers.last().expect("just pushed"))
    }

    /// Stop a running container.
    pub fn stop(&mut self, id: &str) -> Result<(), ContainerError> {
        let container = self
            .containers
            .iter_mut()
            .find(|c| c.id == id)
            .ok_or_else(|| ContainerError::NoSuchContainer(id.to_string()))?;
        if container.state != ContainerState::Running {
            return Err(ContainerError::InvalidState {
                container: id.to_string(),
                state: container.state.as_str().to_string(),
            });
        }
        container.state = ContainerState::Stopped;
        Ok(())
    }

    pub fn container(&self, id: &str) -> Option<&Container> {
        self.containers.iter().find(|c| c.id == id)
    }

    pub fn containers(&self) -> &[Container] {
        &self.containers
    }

    pub fn running_count(&self) -> usize {
        self.containers
            .iter()
            .filter(|c| c.state == ContainerState::Running)
            .count()
    }

    /// Adversarial helper: the host runtime is replaced by a trojaned
    /// binary (e.g. via a container-escape exploit, paper §1). IMA records
    /// the new execution, making the compromise visible to appraisal.
    pub fn compromise_runtime(&mut self, trojaned_dockerd: &[u8]) {
        self.measure_exec("/usr/bin/dockerd", trojaned_dockerd);
    }

    /// Adversarial helper: run an unmeasured binary by exploiting a policy
    /// gap (executions under /dev are not measured by the tcb policy).
    pub fn stealthy_execution(&mut self, path: &str, content: &[u8]) -> bool {
        let measured = self.policy.should_measure(&MeasureEvent::exec(path));
        if measured {
            self.ima.measure_file(path, content);
        }
        measured
    }
}

impl std::fmt::Debug for ContainerHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContainerHost")
            .field("hostname", &self.hostname)
            .field("containers", &self.containers.len())
            .field("ima_entries", &self.ima.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageBuilder;
    use vnfguard_ima::appraisal::{AppraisalPolicy, ReferenceDatabase, Verdict};

    fn vnf_image() -> Image {
        ImageBuilder::new("vnf-fw", "1.0")
            .layer(b"rootfs")
            .entrypoint(b"fw binary")
            .enclave_image(b"cred enclave")
            .build()
    }

    #[test]
    fn boot_measures_os_components() {
        let host = ContainerHost::standard("host-1");
        let paths: Vec<&str> = host
            .measurement_list()
            .entries()
            .iter()
            .map(|e| e.path.as_str())
            .collect();
        assert!(paths.contains(&"/usr/bin/dockerd"));
        assert!(paths.contains(&"boot_aggregate"));
    }

    #[test]
    fn running_container_extends_ima() {
        let mut host = ContainerHost::standard("host-1");
        let before = host.measurement_list().len();
        let image = vnf_image();
        let container = host.run(&image).unwrap();
        assert_eq!(container.state, ContainerState::Running);
        assert_eq!(
            container.enclave_image.as_deref(),
            Some(&b"cred enclave"[..])
        );
        // 1 layer + 1 entrypoint measured.
        assert_eq!(host.measurement_list().len(), before + 2);
        assert_eq!(host.running_count(), 1);
    }

    #[test]
    fn corrupted_image_refused() {
        let mut host = ContainerHost::standard("host-1");
        let mut image = vnf_image();
        image.layers[0].content = b"swapped".to_vec();
        assert!(host.run(&image).is_err());
        assert_eq!(host.running_count(), 0);
    }

    #[test]
    fn stop_lifecycle() {
        let mut host = ContainerHost::standard("host-1");
        let id = host.run(&vnf_image()).unwrap().id.clone();
        host.stop(&id).unwrap();
        assert!(matches!(
            host.stop(&id),
            Err(ContainerError::InvalidState { .. })
        ));
        assert!(matches!(
            host.stop("ct-9999"),
            Err(ContainerError::NoSuchContainer(_))
        ));
        assert_eq!(host.running_count(), 0);
    }

    #[test]
    fn appraisal_detects_trojaned_vnf_image() {
        // Reference DB knows the good image content.
        let mut db = ReferenceDatabase::new();
        db.allow_content("/boot/vmlinuz-4.4.0-51-generic", b"kernel 4.4.0-51");
        db.allow_content("/usr/bin/dockerd", b"docker daemon 1.12.2");
        db.allow_content("/usr/bin/containerd", b"containerd 0.2.x");
        db.allow_content("/sbin/init", b"systemd 229");
        db.allow_content("/var/lib/docker/overlay2/ct-0001/layer-0", b"rootfs");
        db.allow_content("/var/lib/docker/overlay2/ct-0001/entrypoint", b"fw binary");

        let mut clean = ContainerHost::standard("clean");
        clean.run(&vnf_image()).unwrap();
        let verdict = db
            .appraise(clean.measurement_list(), &AppraisalPolicy::default())
            .verdict;
        assert_eq!(verdict, Verdict::Trusted);

        // Same flow with a trojaned entrypoint: appraisal flags it.
        let mut dirty = ContainerHost::standard("dirty");
        let bad = ImageBuilder::new("vnf-fw", "1.0")
            .layer(b"rootfs")
            .entrypoint(b"fw binary WITH IMPLANT")
            .enclave_image(b"cred enclave")
            .build();
        dirty.run(&bad).unwrap();
        let result = db.appraise(dirty.measurement_list(), &AppraisalPolicy::default());
        assert_eq!(result.verdict, Verdict::Mismatch);
        assert!(result.mismatched[0].contains("entrypoint"));
    }

    #[test]
    fn runtime_compromise_is_recorded() {
        let mut host = ContainerHost::standard("host-1");
        let before = host.measurement_list().len();
        host.compromise_runtime(b"docker daemon 1.12.2 + rootkit");
        assert_eq!(host.measurement_list().len(), before + 1);
    }

    #[test]
    fn policy_gap_exists_for_dev_paths() {
        // Documents the limitation the TPM extension (and policy review)
        // addresses: /dev executions are invisible to the tcb policy.
        let mut host = ContainerHost::standard("host-1");
        let before = host.measurement_list().len();
        let measured = host.stealthy_execution("/dev/shm/implant", b"evil");
        assert!(!measured);
        assert_eq!(host.measurement_list().len(), before);
        // Normal paths are measured.
        assert!(host.stealthy_execution("/usr/local/bin/tool", b"x"));
    }

    #[test]
    fn container_ids_unique() {
        let mut host = ContainerHost::standard("host-1");
        let a = host.run(&vnf_image()).unwrap().id.clone();
        let b = host.run(&vnf_image()).unwrap().id.clone();
        assert_ne!(a, b);
        assert_eq!(host.containers().len(), 2);
    }
}

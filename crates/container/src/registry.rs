//! The image registry.

use crate::image::Image;
use crate::ContainerError;
use std::collections::HashMap;

/// A content-addressed image registry.
///
/// Pulls verify layer digests, so tampering *in* the registry (or on the
/// path from it) is detected at deployment time — one of the integrity
/// properties the paper's workflow depends on before attestation even
/// begins.
#[derive(Debug, Default)]
pub struct Registry {
    images: HashMap<String, Image>,
    pulls: u64,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Push an image under its `name:tag` reference.
    pub fn push(&mut self, image: Image) {
        self.images.insert(image.reference(), image);
    }

    /// Pull an image, verifying all content digests.
    pub fn pull(&mut self, reference: &str) -> Result<Image, ContainerError> {
        self.pulls += 1;
        let image = self
            .images
            .get(reference)
            .ok_or_else(|| ContainerError::ImageNotFound(reference.to_string()))?;
        for (i, layer) in image.layers.iter().enumerate() {
            if !layer.verify() {
                return Err(ContainerError::DigestMismatch { layer: i });
            }
        }
        if !image.entrypoint.verify() {
            return Err(ContainerError::DigestMismatch {
                layer: image.layers.len(),
            });
        }
        Ok(image.clone())
    }

    /// Adversarial helper for tests: corrupt a stored layer's content
    /// without updating its digest (a compromised registry).
    pub fn tamper_layer(&mut self, reference: &str, layer: usize, content: &[u8]) -> bool {
        match self.images.get_mut(reference) {
            Some(image) if layer < image.layers.len() => {
                image.layers[layer].content = content.to_vec();
                true
            }
            _ => false,
        }
    }

    pub fn image_count(&self) -> usize {
        self.images.len()
    }

    pub fn pull_count(&self) -> u64 {
        self.pulls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageBuilder;

    fn sample() -> Image {
        ImageBuilder::new("vnf", "1")
            .layer(b"layer-a")
            .entrypoint(b"bin")
            .build()
    }

    #[test]
    fn push_pull_roundtrip() {
        let mut registry = Registry::new();
        registry.push(sample());
        let pulled = registry.pull("vnf:1").unwrap();
        assert_eq!(pulled, sample());
        assert_eq!(registry.pull_count(), 1);
    }

    #[test]
    fn missing_image() {
        let mut registry = Registry::new();
        assert_eq!(
            registry.pull("ghost:1"),
            Err(ContainerError::ImageNotFound("ghost:1".into()))
        );
    }

    #[test]
    fn tampered_layer_detected_on_pull() {
        let mut registry = Registry::new();
        registry.push(sample());
        assert!(registry.tamper_layer("vnf:1", 0, b"evil content"));
        assert_eq!(
            registry.pull("vnf:1"),
            Err(ContainerError::DigestMismatch { layer: 0 })
        );
    }

    #[test]
    fn push_replaces_same_reference() {
        let mut registry = Registry::new();
        registry.push(sample());
        let v2 = ImageBuilder::new("vnf", "1")
            .layer(b"layer-b")
            .entrypoint(b"bin2")
            .build();
        registry.push(v2.clone());
        assert_eq!(registry.image_count(), 1);
        assert_eq!(registry.pull("vnf:1").unwrap(), v2);
    }

    #[test]
    fn tamper_out_of_range() {
        let mut registry = Registry::new();
        registry.push(sample());
        assert!(!registry.tamper_layer("vnf:1", 99, b"x"));
        assert!(!registry.tamper_layer("ghost:1", 0, b"x"));
    }
}

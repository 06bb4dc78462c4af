//! Grayscale images in `[0, 1]`.

/// A row-major grayscale raster. Pixel values are `f64` in `[0, 1]`
/// (tiles are rendered to this range by `fc-tiles`).
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    pixels: Vec<f64>,
}

impl GrayImage {
    /// Creates an image from row-major pixels.
    ///
    /// # Panics
    /// Panics when `pixels.len() != width * height` or a dimension is 0.
    pub fn new(width: usize, height: usize, pixels: Vec<f64>) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        assert_eq!(pixels.len(), width * height, "pixel count mismatch");
        Self {
            width,
            height,
            pixels,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw pixels, row-major.
    pub fn pixels(&self) -> &[f64] {
        &self.pixels
    }

    /// Pixel at `(x, y)` with clamp-to-edge semantics for out-of-range
    /// coordinates (the convolution boundary convention).
    #[inline]
    pub(crate) fn get_clamped(&self, x: isize, y: isize) -> f64 {
        let xi = x.clamp(0, self.width as isize - 1) as usize;
        let yi = y.clamp(0, self.height as isize - 1) as usize;
        self.pixels[yi * self.width + xi]
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f64 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x]
    }

    /// Half-resolution copy (every other pixel; inputs should be blurred
    /// first to avoid aliasing).
    pub(crate) fn downsample2(&self) -> GrayImage {
        let w = (self.width / 2).max(1);
        let h = (self.height / 2).max(1);
        let mut out = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                out.push(self.get((x * 2).min(self.width - 1), (y * 2).min(self.height - 1)));
            }
        }
        GrayImage::new(w, h, out)
    }

    /// Pixel-wise difference `self - other` (for DoG layers).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn diff(&self, other: &GrayImage) -> GrayImage {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "image dimensions mismatch"
        );
        let pixels = self
            .pixels
            .iter()
            .zip(&other.pixels)
            .map(|(a, b)| a - b)
            .collect();
        GrayImage::new(self.width, self.height, pixels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let img = GrayImage::new(3, 2, vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5]);
        assert_eq!(img.get(0, 0), 0.0);
        assert_eq!(img.get(2, 1), 0.5);
        assert_eq!(img.width(), 3);
        assert_eq!(img.height(), 2);
    }

    #[test]
    #[should_panic(expected = "pixel count mismatch")]
    fn wrong_pixel_count_panics() {
        GrayImage::new(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn clamped_access_extends_edges() {
        let img = GrayImage::new(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(img.get_clamped(-5, 0), 1.0);
        assert_eq!(img.get_clamped(5, 5), 4.0);
        assert_eq!(img.get_clamped(0, 5), 3.0);
    }

    #[test]
    fn downsample_halves_dimensions() {
        let img = GrayImage::new(4, 4, (0..16).map(|i| i as f64).collect());
        let d = img.downsample2();
        assert_eq!((d.width(), d.height()), (2, 2));
        assert_eq!(d.get(0, 0), 0.0);
        assert_eq!(d.get(1, 0), 2.0);
        assert_eq!(d.get(0, 1), 8.0);
        // Degenerate 1-pixel image survives.
        let tiny = GrayImage::new(1, 1, vec![0.5; 1]).downsample2();
        assert_eq!((tiny.width(), tiny.height()), (1, 1));
    }

    #[test]
    fn diff_and_mean() {
        let a = GrayImage::new(2, 2, vec![0.75; 4]);
        let b = GrayImage::new(2, 2, vec![0.25; 4]);
        let d = a.diff(&b);
        assert!(d.pixels().iter().all(|&v| (v - 0.5).abs() < 1e-15));
    }
}

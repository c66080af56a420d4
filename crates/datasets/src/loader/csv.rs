//! Numeric CSV loader for UCI-style tabular datasets (UCIHAR, ISOLET,
//! PAMAP).

use std::fs;
use std::path::Path;

use crate::dataset::Dataset;
use crate::error::DatasetError;

/// Which column of each CSV row holds the integer class label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelColumn {
    /// The first column is the label.
    First,
    /// The last column is the label.
    Last,
}

/// Parses numeric CSV text into a [`Dataset`].
///
/// Rules: one sample per non-empty line; fields separated by commas;
/// everything is `f32` except the label column, which must be a
/// non-negative integer; a single leading header line is skipped if its
/// label field does not parse as a number. The class count is
/// `max(label) + 1` unless `n_classes` pins it.
///
/// # Errors
///
/// Returns [`DatasetError::Parse`] for malformed fields or ragged rows and
/// [`DatasetError::Shape`] for label/class inconsistencies.
pub fn parse_csv(
    text: &str,
    name: &str,
    label_column: LabelColumn,
    n_classes: Option<usize>,
) -> Result<Dataset, DatasetError> {
    let parse_err = |line: usize, message: String| DatasetError::Parse {
        context: format!("{name}:{line}"),
        message,
    };
    let mut features: Vec<f32> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    let mut n_features: Option<usize> = None;
    let mut first_data_line = true;

    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() < 2 {
            return Err(parse_err(
                lineno + 1,
                "each row needs a label and at least one feature".into(),
            ));
        }
        let (label_field, feature_fields): (&str, &[&str]) = match label_column {
            LabelColumn::First => (fields[0], &fields[1..]),
            LabelColumn::Last => (fields[fields.len() - 1], &fields[..fields.len() - 1]),
        };
        let label = match label_field.parse::<usize>() {
            Ok(v) => v,
            Err(_) if first_data_line => {
                // Treat an unparsable first line as a header.
                first_data_line = false;
                continue;
            }
            Err(_) => {
                return Err(parse_err(
                    lineno + 1,
                    format!("label field {label_field:?} is not a non-negative integer"),
                ));
            }
        };
        first_data_line = false;
        match n_features {
            None => n_features = Some(feature_fields.len()),
            Some(n) if n != feature_fields.len() => {
                return Err(parse_err(
                    lineno + 1,
                    format!("expected {n} features, found {}", feature_fields.len()),
                ));
            }
            Some(_) => {}
        }
        for field in feature_fields {
            let v = field.parse::<f32>().map_err(|_| {
                parse_err(lineno + 1, format!("feature field {field:?} is not numeric"))
            })?;
            features.push(v);
        }
        labels.push(label);
    }

    let n_features = n_features
        .ok_or_else(|| DatasetError::Shape(format!("{name}: no data rows found")))?;
    let k = match n_classes {
        Some(k) => k,
        None => labels.iter().copied().max().unwrap_or(0) + 1,
    };
    Dataset::new(name, features, labels, n_features, k)
}

/// Reads and parses a numeric CSV file.
///
/// # Errors
///
/// Returns [`DatasetError::Io`] on read failure, otherwise as
/// [`parse_csv`].
pub fn load_csv(
    path: &Path,
    label_column: LabelColumn,
    n_classes: Option<usize>,
) -> Result<Dataset, DatasetError> {
    let text = fs::read_to_string(path)?;
    parse_csv(
        &text,
        &path.display().to_string(),
        label_column,
        n_classes,
    )
}

/// Parses features-only CSV text, the input of batch prediction and load
/// generation: one sample per non-empty line, every comma-separated field
/// an `f32`. There is no label column and no header, and NaN/±inf are
/// refused, since no encoder can quantize them.
///
/// # Errors
///
/// Returns [`DatasetError::Parse`] naming the line of the first field that
/// is not numeric or not finite.
pub fn parse_feature_rows(text: &str, name: &str) -> Result<Vec<Vec<f32>>, DatasetError> {
    let mut rows = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let row = line
            .split(',')
            .map(str::trim)
            .enumerate()
            .map(|(j, field)| match field.parse::<f32>() {
                Ok(v) if v.is_finite() => Ok(v),
                Ok(_) => Err(format!(
                    "feature {j} ({field:?}) is not finite (NaN/±inf cannot be quantized)"
                )),
                Err(_) => Err(format!("feature field {field:?} is not numeric")),
            })
            .collect::<Result<Vec<f32>, String>>()
            .map_err(|message| DatasetError::Parse {
                context: format!("{name}:{}", lineno + 1),
                message,
            })?;
        rows.push(row);
    }
    Ok(rows)
}

/// Reads and parses a features-only CSV file.
///
/// # Errors
///
/// Returns [`DatasetError::Io`] naming `path` on read failure, otherwise as
/// [`parse_feature_rows`].
pub fn load_feature_rows(path: &Path) -> Result<Vec<Vec<f32>>, DatasetError> {
    let text = fs::read_to_string(path)
        .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    parse_feature_rows(&text, &path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_rows_parse_and_name_the_bad_line() {
        let rows = parse_feature_rows("0.5, 1\n\n-2,3e2\n", "f").unwrap();
        assert_eq!(rows, vec![vec![0.5, 1.0], vec![-2.0, 300.0]]);
        for (text, want) in [
            ("1,2\n3,x\n", "f:2: feature field \"x\" is not numeric"),
            ("1,NaN\n", "f:1: feature 1 (\"NaN\") is not finite"),
            ("1,2\n\n-inf,0\n", "f:3: feature 0 (\"-inf\") is not finite"),
        ] {
            let err = parse_feature_rows(text, "f").unwrap_err().to_string();
            assert!(err.contains(want), "{text:?}: {err}");
        }
        let missing = load_feature_rows(Path::new("/nonexistent/rows.csv")).unwrap_err();
        assert!(
            missing.to_string().contains("/nonexistent/rows.csv"),
            "{missing}"
        );
    }

    #[test]
    fn parses_label_first_csv() {
        let ds = parse_csv("0,1.5,2.5\n1,3.0,4.0\n", "t", LabelColumn::First, None).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.n_classes(), 2);
        assert_eq!(ds.row(0), &[1.5, 2.5]);
        assert_eq!(ds.labels(), &[0, 1]);
    }

    #[test]
    fn parses_label_last_csv_with_header() {
        let text = "f1,f2,class\n0.1,0.2,1\n0.3,0.4,0\n";
        let ds = parse_csv(text, "t", LabelColumn::Last, Some(3)).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.n_classes(), 3);
        assert_eq!(ds.labels(), &[1, 0]);
    }

    #[test]
    fn skips_blank_lines() {
        let ds = parse_csv("\n0,1.0\n\n1,2.0\n\n", "t", LabelColumn::First, None).unwrap();
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn rejects_malformed_rows() {
        assert!(parse_csv("0\n", "t", LabelColumn::First, None).is_err()); // no features
        assert!(parse_csv("0,1.0\n1,2.0,3.0\n", "t", LabelColumn::First, None).is_err()); // ragged
        assert!(parse_csv("0,abc\n", "t", LabelColumn::First, None).is_err()); // bad feature
        assert!(parse_csv("0,1.0\nx,2.0\n", "t", LabelColumn::First, None).is_err()); // bad label mid-file
        assert!(parse_csv("", "t", LabelColumn::First, None).is_err()); // empty
        assert!(parse_csv("header,line\n", "t", LabelColumn::First, None).is_err()); // header only
    }

    #[test]
    fn label_exceeding_pinned_classes_is_rejected() {
        assert!(parse_csv("5,1.0\n", "t", LabelColumn::First, Some(3)).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("lehdc_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.csv");
        std::fs::write(&path, "0,0.5\n1,0.75\n").unwrap();
        let ds = load_csv(&path, LabelColumn::First, None).unwrap();
        assert_eq!(ds.len(), 2);
        assert!(load_csv(Path::new("/nonexistent.csv"), LabelColumn::First, None).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}

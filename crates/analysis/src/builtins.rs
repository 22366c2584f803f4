//! Models of PHP's standard library functions.
//!
//! The paper's implementation "added specifications for 243 PHP
//! functions" (§4). This catalog plays the same role: every function a
//! web application is likely to touch maps to a [`Model`] describing
//! its effect on string values and taint. Functions with genuinely
//! string-transducing behavior get precise finite-state transducers;
//! numeric/boolean functions get exact result *languages* (which is
//! what the conformance checks consume); the rest get a sound Σ*
//! over-approximation that preserves argument taint.
//!
//! Unlisted functions fall back to Σ*-keep-taint and are reported in
//! the analysis statistics, mirroring the paper's workflow of adding
//! specs on demand.

use strtaint_automata::fst::{builders, Fst};
use strtaint_automata::{ByteSet, OutSym};

/// How a builtin transforms its (string) arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Returns argument 0 unchanged (e.g. `strval`).
    Identity,
    /// Applies a finite-state transducer to argument 0.
    Transducer(Transducer),
    /// Result is a numeric literal; taint of the arguments is kept.
    Numeric,
    /// Result is a fixed-length lowercase-hex token (e.g. `md5`).
    HexToken,
    /// Result draws only from `[A-Za-z0-9+/=]` (e.g. `base64_encode`);
    /// taint kept.
    Base64,
    /// Result draws only from URL-encoded-safe bytes; taint kept.
    UrlSafe,
    /// Result is any string; taint of arguments is kept (sound
    /// fallback for under-modeled string functions like `substr`).
    AnyKeepTaint,
    /// Result is any string with no taint (environment data such as
    /// `date()` with a program-chosen format).
    AnyUntainted,
    /// Result is the empty string / irrelevant non-string (e.g.
    /// side-effect functions like `header`).
    ConstEmpty,
    /// Result is a PHP boolean rendered to `"1"`/`""`.
    Bool,
    /// `str_replace` — handled structurally by the builder (needs the
    /// literal pattern/replacement arguments).
    StrReplace,
    /// `preg_replace`-family — handled structurally.
    PregReplace {
        /// POSIX `ereg_replace` (no delimiters), `true` for
        /// case-insensitive `eregi_replace`.
        posix_ci: bool,
        /// Whether the pattern has PCRE delimiters.
        delimited: bool,
    },
    /// `sprintf` — handled structurally (needs the literal format).
    Sprintf,
    /// `implode` — handled structurally.
    Implode,
    /// `explode` — handled structurally.
    Explode,
    /// `str_repeat` — handled structurally (constant counts unroll).
    StrRepeat,
}

/// Precisely-modeled transducers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transducer {
    /// `addslashes`
    AddSlashes,
    /// `stripslashes`
    StripSlashes,
    /// `mysql_real_escape_string` / `mysql_escape_string`
    MysqlEscape,
    /// `strtolower`
    Lower,
    /// `strtoupper`
    Upper,
    /// `trim`
    Trim,
    /// `ltrim`
    Ltrim,
    /// `rtrim` / `chop`
    Rtrim,
    /// `htmlspecialchars` / `htmlentities` (default flags)
    HtmlSpecialChars,
    /// `nl2br`
    Nl2Br,
    /// `urlencode`
    UrlEncode,
    /// `rawurlencode`
    RawUrlEncode,
    /// `ucfirst`
    UcFirst,
    /// `lcfirst`
    LcFirst,
    /// `strip_tags` (approximated: deletes `<`…`>` runs)
    StripTags,
}

/// Builds the FST for a [`Transducer`].
pub fn transducer_fst(kind: Transducer) -> Fst {
    match kind {
        Transducer::AddSlashes => builders::addslashes(),
        Transducer::StripSlashes => builders::stripslashes(),
        Transducer::MysqlEscape => builders::mysql_escape(),
        Transducer::Lower => builders::lowercase(),
        Transducer::Upper => builders::uppercase(),
        Transducer::Trim => builders::trim(),
        Transducer::Ltrim => builders::ltrim(),
        Transducer::Rtrim => builders::rtrim(),
        Transducer::HtmlSpecialChars => html_special_chars(),
        Transducer::Nl2Br => builders::replace_literal(b"\n", b"<br />\n"),
        Transducer::UrlEncode => url_encode(false),
        Transducer::RawUrlEncode => url_encode(true),
        Transducer::UcFirst => builders::ucfirst(),
        Transducer::LcFirst => builders::lcfirst(),
        Transducer::StripTags => strip_tags(),
    }
}

/// `htmlspecialchars` with default flags: `&`, `<`, `>`, `"` become
/// entities (single quote untouched, as in pre-5.4 PHP defaults).
fn html_special_chars() -> Fst {
    let mut f = Fst::new();
    let s = f.start();
    let fixed = |text: &[u8]| -> Vec<OutSym> { text.iter().map(|&b| OutSym::Byte(b)).collect() };
    f.add_arc(s, ByteSet::singleton(b'&'), fixed(b"&amp;"), s);
    f.add_arc(s, ByteSet::singleton(b'<'), fixed(b"&lt;"), s);
    f.add_arc(s, ByteSet::singleton(b'>'), fixed(b"&gt;"), s);
    f.add_arc(s, ByteSet::singleton(b'"'), fixed(b"&quot;"), s);
    let rest = ByteSet::from_bytes([b'&', b'<', b'>', b'"']).complement();
    f.add_arc(s, rest, vec![OutSym::Copy], s);
    f.set_final(s, Vec::new());
    f
}

/// `urlencode`: alphanumerics and `-_.` pass, space becomes `+`, the
/// rest become `%XX` (uppercase hex). `rawurlencode` (`raw`) follows
/// RFC 3986 instead: `~` passes too, and space becomes `%20`.
fn url_encode(raw: bool) -> Fst {
    let mut f = Fst::new();
    let s = f.start();
    let unreserved: &[u8] = if raw { b"-_.~" } else { b"-_." };
    let safe = ByteSet::range(b'A', b'Z')
        .union(&ByteSet::range(b'a', b'z'))
        .union(&ByteSet::range(b'0', b'9'))
        .union(&ByteSet::from_bytes(unreserved.iter().copied()));
    f.add_arc(s, safe, vec![OutSym::Copy], s);
    if !raw {
        f.add_arc(s, ByteSet::singleton(b' '), vec![OutSym::Byte(b'+')], s);
    }
    // Every other byte escapes to its own %XX — one arc per byte.
    for b in 0..=255u8 {
        if safe.contains(b) || (b == b' ' && !raw) {
            continue;
        }
        let hex = format!("%{b:02X}");
        f.add_arc(
            s,
            ByteSet::singleton(b),
            hex.bytes().map(OutSym::Byte).collect(),
            s,
        );
    }
    f.set_final(s, Vec::new());
    f
}

/// `strip_tags`, approximated: deletes maximal `<`…`>` runs; a `<`
/// with no closing `>` deletes the rest of the string (PHP behavior).
fn strip_tags() -> Fst {
    let mut f = Fst::new();
    let outside = f.start();
    let inside = f.add_state();
    let lt = ByteSet::singleton(b'<');
    let gt = ByteSet::singleton(b'>');
    f.add_arc(outside, lt, Vec::new(), inside);
    f.add_arc(outside, lt.complement(), vec![OutSym::Copy], outside);
    f.add_arc(inside, gt, Vec::new(), outside);
    f.add_arc(inside, gt.complement(), Vec::new(), inside);
    f.set_final(outside, Vec::new());
    f.set_final(inside, Vec::new());
    f
}

/// Looks up the model for a builtin (lowercased) function name.
///
/// Returns `None` for names that are not modeled — the analysis then
/// applies the sound Σ*-keep-taint fallback and records the name.
pub fn lookup(name: &str) -> Option<Model> {
    use Model::*;
    type T = self::Transducer;
    Some(match name {
        // --- precise transducers ---
        "addslashes" => Transducer(T::AddSlashes),
        "stripslashes" => Transducer(T::StripSlashes),
        "mysql_real_escape_string" | "mysql_escape_string" | "mysqli_real_escape_string"
        | "pg_escape_string" | "sqlite_escape_string" => Transducer(T::MysqlEscape),
        "strtolower" => Transducer(T::Lower),
        "strtoupper" => Transducer(T::Upper),
        "trim" => Transducer(T::Trim),
        "ltrim" => Transducer(T::Ltrim),
        "rtrim" | "chop" => Transducer(T::Rtrim),
        "htmlspecialchars" | "htmlentities" => Transducer(T::HtmlSpecialChars),
        "nl2br" => Transducer(T::Nl2Br),
        "urlencode" => Transducer(T::UrlEncode),
        "rawurlencode" => Transducer(T::RawUrlEncode),
        "ucfirst" => Transducer(T::UcFirst),
        "lcfirst" => Transducer(T::LcFirst),
        "strip_tags" => Transducer(T::StripTags),
        // --- structural models ---
        "str_replace" | "str_ireplace" => StrReplace,
        "preg_replace" => PregReplace {
            posix_ci: false,
            delimited: true,
        },
        "ereg_replace" => PregReplace {
            posix_ci: false,
            delimited: false,
        },
        "eregi_replace" => PregReplace {
            posix_ci: true,
            delimited: false,
        },
        "sprintf" => Sprintf,
        "implode" | "join" => Implode,
        "explode" | "split" | "preg_split" => Explode,
        "str_repeat" => StrRepeat,
        // --- identity-like ---
        "strval" | "stripcslashes" | "html_entity_decode" | "htmlspecialchars_decode"
        | "urldecode" | "rawurldecode" | "utf8_encode" | "utf8_decode" => Identity_or(name),
        // --- numeric results ---
        "intval" | "floatval" | "doubleval" | "abs" | "round" | "floor" | "ceil" | "count"
        | "sizeof" | "strlen" | "strpos" | "strrpos" | "stripos" | "substr_count" | "ord"
        | "time" | "mktime" | "rand" | "mt_rand" | "random_int" | "crc32" | "hexdec"
        | "octdec" | "bindec" | "array_sum" | "min" | "max" | "pow" | "sqrt" | "intdiv"
        | "fmod" | "microtime" | "memory_get_usage" | "filesize" | "filemtime" | "ip2long"
        | "mysql_num_rows" | "mysql_insert_id" | "mysql_affected_rows" | "mysqli_num_rows"
        | "mysqli_insert_id" | "func_num_args" | "connection_status" | "getmypid"
        | "posix_getpid" | "levenshtein" | "similar_text" | "array_push" | "array_unshift"
        | "error_reporting" | "ftell" | "fwrite" | "fputs" | "umask" | "disk_free_space" => {
            Numeric
        }
        // --- hex tokens ---
        "md5" | "sha1" | "hash" | "crc32b" | "md5_file" | "sha1_file" | "spl_object_hash"
        | "session_id" | "dechex" | "bin2hex" => HexToken,
        // --- restricted alphabets ---
        "base64_encode" => Base64,
        "uniqid" | "tempnam" | "basename" => UrlSafe,
        "number_format" => Numeric,
        "chr" => AnyKeepTaint,
        // --- any string, taint preserved (sound fallback models) ---
        "substr" | "substr_replace" | "ucwords" | "wordwrap"
        | "str_pad" | "strrev" | "strstr" | "stristr" | "strrchr" | "strtr"
        | "vsprintf" | "chunk_split" | "quotemeta" | "addcslashes" | "serialize"
        | "unserialize" | "json_encode" | "json_decode" | "array_shift" | "array_pop"
        | "current" | "reset" | "end" | "next" | "prev" | "each" | "key" | "array_slice"
        | "array_merge" | "array_values" | "array_keys" | "array_reverse" | "array_unique"
        | "array_filter" | "array_map" | "compact" | "extract" | "http_build_query"
        | "parse_url" | "parse_str" | "pathinfo" | "dirname" | "realpath" | "iconv"
        | "mb_substr" | "mb_strtolower" | "mb_strtoupper" | "convert_uuencode"
        | "convert_uudecode" | "gzcompress" | "gzuncompress" | "stream_get_contents"
        | "ob_get_contents" | "ob_get_clean" | "get_magic_quotes_gpc" | "import_request_variables"
        | "array_rand" | "str_split" | "strpbrk" | "strspn" | "strcspn" | "nl_langinfo"
        | "money_format" | "similar_text_percent" => AnyKeepTaint,
        // --- environment / program-controlled strings, untainted ---
        "date" | "gmdate" | "strftime" | "gmstrftime" | "getenv" | "php_uname" | "phpversion"
        | "php_sapi_name" | "get_current_user" | "getcwd" | "sys_get_temp_dir" | "gettype"
        | "get_class" | "function_exists" | "class_exists" | "method_exists" | "extension_loaded"
        | "ini_get" | "get_cfg_var" | "gethostbyaddr" | "gethostbyname" | "long2ip"
        | "mysql_error" | "mysqli_error" | "mysql_errno" | "pg_last_error" | "sqlite_error_string"
        | "curl_error" | "error_get_last" | "file_get_contents" | "fgets" | "fread" | "fgetc"
        | "readline" | "get_included_files" | "php_ini_loaded_file" | "locale_get_default"
        | "timezone_name_get" | "version_compare" => AnyUntainted,
        // --- booleans ---
        "isset" | "empty" | "is_null" | "is_numeric" | "is_string" | "is_array" | "is_int"
        | "is_integer" | "is_float" | "is_bool" | "is_object" | "is_callable" | "is_dir"
        | "is_file" | "is_readable" | "is_writable" | "file_exists" | "in_array"
        | "array_key_exists" | "ctype_digit" | "ctype_alpha" | "ctype_alnum" | "ctype_xdigit"
        | "preg_match" | "preg_match_all" | "ereg" | "eregi" | "checkdate" | "strcmp"
        | "strcasecmp" | "strncmp" | "strncasecmp" | "mysql_select_db" | "mysqli_select_db"
        | "mysql_close" | "mysqli_close" | "mysql_free_result" | "mail" | "setcookie"
        | "session_start" | "session_destroy" | "session_write_close" | "headers_sent"
        | "define" | "defined" | "usleep" | "sleep" | "flush" | "ob_start" | "ob_end_flush"
        | "ob_end_clean" | "ignore_user_abort" | "set_time_limit" | "register_shutdown_function"
        | "spl_autoload_register" | "assert" | "ctype_space" | "ctype_upper" | "ctype_lower"
        | "is_uploaded_file" | "move_uploaded_file" | "unlink" | "mkdir" | "rmdir" | "rename"
        | "copy" | "touch" | "chmod" | "fclose" | "rewind" | "feof" => Bool,
        // --- pure side effects ---
        "header" | "echo" | "print" | "print_r" | "var_dump" | "var_export" | "error_log"
        | "trigger_error" | "exit" | "die" | "unset" | "ini_set" | "srand" | "mt_srand"
        | "session_register" | "session_unregister" | "setlocale" | "date_default_timezone_set"
        | "usort" | "uasort" | "uksort" | "sort" | "rsort" | "asort" | "arsort" | "ksort"
        | "krsort" | "shuffle" | "natsort" | "natcasesort" | "array_splice" | "array_walk"
        | "call_user_func" | "call_user_func_array" | "func_get_args" | "debug_backtrace" => {
            ConstEmpty
        }
        _ => return None,
    })
}

// `Identity_or` exists so the match arm above reads naturally while we
// keep decode-like functions modeled soundly: decoding *expands* the
// byte repertoire, so Σ*-keep-taint is the sound choice for decoders,
// while plain `strval` is true identity.
#[allow(non_snake_case)]
fn Identity_or(name: &str) -> Model {
    match name {
        "strval" => Model::Identity,
        _ => Model::AnyKeepTaint,
    }
}

/// Number of modeled builtins (the paper's tool shipped 243 specs).
pub fn catalog_size() -> usize {
    CATALOG_NAMES.iter().filter(|n| lookup(n).is_some()).count()
}

/// Names probed by [`catalog_size`]; kept in sync with [`lookup`] by
/// the `catalog_is_large` test.
const CATALOG_NAMES: &[&str] = &[
    "addslashes", "stripslashes", "mysql_real_escape_string", "mysql_escape_string",
    "mysqli_real_escape_string", "pg_escape_string", "sqlite_escape_string", "strtolower",
    "strtoupper", "trim", "ltrim", "rtrim", "chop", "htmlspecialchars", "htmlentities",
    "nl2br", "urlencode", "rawurlencode", "strip_tags", "str_replace", "str_ireplace",
    "preg_replace", "ereg_replace", "eregi_replace", "sprintf", "implode", "join", "explode",
    "split", "preg_split", "strval", "stripcslashes", "html_entity_decode",
    "htmlspecialchars_decode", "urldecode", "rawurldecode", "utf8_encode", "utf8_decode",
    "intval", "floatval", "doubleval", "abs", "round", "floor", "ceil", "count", "sizeof",
    "strlen", "strpos", "strrpos", "stripos", "substr_count", "ord", "time", "mktime",
    "rand", "mt_rand", "random_int", "crc32", "hexdec", "octdec", "bindec", "array_sum",
    "min", "max", "pow", "sqrt", "intdiv", "fmod", "microtime", "memory_get_usage",
    "filesize", "filemtime", "ip2long", "mysql_num_rows", "mysql_insert_id",
    "mysql_affected_rows", "mysqli_num_rows", "mysqli_insert_id", "func_num_args",
    "connection_status", "getmypid", "posix_getpid", "levenshtein", "similar_text",
    "array_push", "array_unshift", "error_reporting", "ftell", "fwrite", "fputs", "umask",
    "disk_free_space", "md5", "sha1", "hash", "crc32b", "md5_file", "sha1_file",
    "spl_object_hash", "session_id", "dechex", "bin2hex", "base64_encode", "uniqid",
    "tempnam", "basename", "number_format", "chr", "substr", "substr_replace", "ucfirst",
    "lcfirst", "ucwords", "wordwrap", "str_pad", "str_repeat", "strrev", "strstr", "stristr",
    "strrchr", "strtr", "vsprintf", "chunk_split", "quotemeta", "addcslashes", "serialize",
    "unserialize", "json_encode", "json_decode", "array_shift", "array_pop", "current",
    "reset", "end", "next", "prev", "each", "key", "array_slice", "array_merge",
    "array_values", "array_keys", "array_reverse", "array_unique", "array_filter",
    "array_map", "compact", "extract", "http_build_query", "parse_url", "parse_str",
    "pathinfo", "dirname", "realpath", "iconv", "mb_substr", "mb_strtolower",
    "mb_strtoupper", "convert_uuencode", "convert_uudecode", "gzcompress", "gzuncompress",
    "stream_get_contents", "ob_get_contents", "ob_get_clean", "get_magic_quotes_gpc",
    "import_request_variables", "array_rand", "str_split", "strpbrk", "strspn", "strcspn",
    "nl_langinfo", "money_format", "date", "gmdate", "strftime", "gmstrftime", "getenv",
    "php_uname", "phpversion", "php_sapi_name", "get_current_user", "getcwd",
    "sys_get_temp_dir", "gettype", "get_class", "function_exists", "class_exists",
    "method_exists", "extension_loaded", "ini_get", "get_cfg_var", "gethostbyaddr",
    "gethostbyname", "long2ip", "mysql_error", "mysqli_error", "mysql_errno",
    "pg_last_error", "sqlite_error_string", "curl_error", "error_get_last",
    "file_get_contents", "fgets", "fread", "fgetc", "readline", "get_included_files",
    "php_ini_loaded_file", "locale_get_default", "timezone_name_get", "version_compare",
    "isset", "empty", "is_null", "is_numeric", "is_string", "is_array", "is_int",
    "is_integer", "is_float", "is_bool", "is_object", "is_callable", "is_dir", "is_file",
    "is_readable", "is_writable", "file_exists", "in_array", "array_key_exists",
    "ctype_digit", "ctype_alpha", "ctype_alnum", "ctype_xdigit", "preg_match",
    "preg_match_all", "ereg", "eregi", "checkdate", "strcmp", "strcasecmp", "strncmp",
    "strncasecmp", "mysql_select_db", "mysqli_select_db", "mysql_close", "mysqli_close",
    "mysql_free_result", "mail", "setcookie", "session_start", "session_destroy",
    "session_write_close", "headers_sent", "define", "defined", "usleep", "sleep", "flush",
    "ob_start", "ob_end_flush", "ob_end_clean", "ignore_user_abort", "set_time_limit",
    "register_shutdown_function", "spl_autoload_register", "assert", "ctype_space",
    "ctype_upper", "ctype_lower", "is_uploaded_file", "move_uploaded_file", "unlink",
    "mkdir", "rmdir", "rename", "copy", "touch", "chmod", "fclose", "rewind", "feof",
    "header", "print_r", "var_dump", "var_export", "error_log", "trigger_error", "ini_set",
    "srand", "mt_srand", "session_register", "session_unregister", "setlocale",
    "date_default_timezone_set", "usort", "uasort", "uksort", "sort", "rsort", "asort",
    "arsort", "ksort", "krsort", "shuffle", "natsort", "natcasesort", "array_splice",
    "array_walk", "call_user_func", "call_user_func_array", "func_get_args",
    "debug_backtrace",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_large() {
        // The paper shipped 243 specs; ours must be in that league.
        let n = catalog_size();
        assert!(n >= 243, "catalog has only {n} modeled functions");
    }

    #[test]
    fn sanitizers_are_transducers() {
        assert!(matches!(
            lookup("addslashes"),
            Some(Model::Transducer(Transducer::AddSlashes))
        ));
        assert!(matches!(
            lookup("mysql_real_escape_string"),
            Some(Model::Transducer(Transducer::MysqlEscape))
        ));
    }

    #[test]
    fn unknown_functions_are_none() {
        assert_eq!(lookup("totally_made_up_fn"), None);
    }

    #[test]
    fn htmlspecialchars_fst() {
        let f = transducer_fst(Transducer::HtmlSpecialChars);
        assert_eq!(
            f.transduce_unique(b"a<b>&\"c'").unwrap(),
            b"a&lt;b&gt;&amp;&quot;c'".to_vec()
        );
    }

    #[test]
    fn urlencode_fst() {
        let f = transducer_fst(Transducer::UrlEncode);
        assert_eq!(
            f.transduce_unique(b"a b'c").unwrap(),
            b"a+b%27c".to_vec()
        );
        // The crucial property for SQLCIV analysis: no quote survives.
        let out = f.transduce_unique(b"' OR '1'='1").unwrap();
        assert!(!out.contains(&b'\''));
        assert_eq!(f.transduce_unique(b"~").unwrap(), b"%7E".to_vec());
        // rawurlencode follows RFC 3986: space is %20, '~' is unreserved.
        let raw = transducer_fst(Transducer::RawUrlEncode);
        assert_eq!(
            raw.transduce_unique(b"a b'~+").unwrap(),
            b"a%20b%27~%2B".to_vec()
        );
    }

    #[test]
    fn strip_tags_fst() {
        let f = transducer_fst(Transducer::StripTags);
        let outs = f.transduce(b"a<b>c</b>d", 8);
        assert!(outs.contains(&b"acd".to_vec()));
    }

    #[test]
    fn nl2br_fst() {
        let f = transducer_fst(Transducer::Nl2Br);
        assert_eq!(
            f.transduce_unique(b"a\nb").unwrap(),
            b"a<br />\nb".to_vec()
        );
    }
}

//! A minimal server-page substrate standing in for the WWW systems the
//! paper discusses (Java Server Pages, PHP, Informix Webdriver; Sect. 1
//! and 5), plus the synthetic workloads the evaluation drives.
//!
//! The crate hosts the four authoring styles the paper contrasts, all
//! rendering the *same* pages:
//!
//! * string concatenation (JSP-like, unchecked — and a deliberately
//!   buggy variant reproducing the Sect. 1 "Wrong Server Page");
//! * generic DOM + whole-document runtime validation;
//! * typed V-DOM construction;
//! * pre-checked P-XML templates.
//!
//! Workloads: a seeded synthetic media archive (the paper's media-archive
//! project is not available) and a purchase-order generator ("XML views
//! of databases"). Benches B1–B3 are built on these.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod directory_page;
pub mod html_page;
pub mod media;
pub mod orders;
pub mod registry;
pub mod session;

pub use directory_page::{
    render_dom, render_string, render_string_buggy, render_vdom, CompiledDirectoryPage,
    DirectoryPageData, PxmlDirectoryPage,
};
pub use html_page::{
    check_server_pages, simple_server_page_string, simple_server_page_vdom,
    wrong_server_page_string,
};
pub use media::{Directory, MediaArchive, MediaObject};
pub use orders::{
    build_order_dom, generate_order, render_order_dom, render_order_string, render_order_vdom,
    Address, Item, Order, OrderTemplates,
};
pub use pool::ThreadPool;
pub use registry::{RegisterError, SchemaRegistry};
pub use session::{DocSession, SessionError};

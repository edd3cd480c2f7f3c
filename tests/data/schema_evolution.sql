-- A migration-style script: indexes follow a renamed table and a renamed
-- column, a dropped column takes its index along, and a schema-qualified
-- table is not the bare table of the same name. Every filter below is either
-- served by an index or on a table the script never defines, so no finding
-- may ask for a missing index.
CREATE TABLE accounts (id INT PRIMARY KEY, email VARCHAR(64), region VARCHAR(8),
                       legacy_code INT);
CREATE INDEX idx_accounts_email ON accounts (email);
CREATE INDEX idx_accounts_legacy ON accounts (legacy_code);
ALTER TABLE accounts RENAME TO customers;
ALTER TABLE customers RENAME COLUMN email TO contact_email;
ALTER TABLE customers DROP COLUMN legacy_code;
SELECT id FROM customers WHERE contact_email = 'a@example.com';
SELECT id FROM customers WHERE contact_email = 'b@example.com';
SELECT id FROM archive.customers WHERE region = 'eu';
SELECT id FROM archive.customers WHERE region = 'us';
